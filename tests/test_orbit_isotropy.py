"""Block structure and MASA test of a realization read from orbit and
isotropy data, cross-checked against the generic commutant path (the
center of the realized algebra, the relative commutant of the diagonal)
and the brute-force Wedderburn oracle of the acceptance suite.  Also the
inverse of the representation by HS coefficients, against least squares,
and guards that keep the commutant SVD off the ``cstar`` path."""

import ast
import json
import pathlib

import numpy as np
import pytest

import cartankit.matalg
import cartankit.reduced
from cartankit import cli
from cartankit.groupoid import (
    build_groupoid,
    cyclic_groupoid,
    disjoint_union,
    klein_four_groupoid,
    pair_groupoid,
    validate,
)
from cartankit.errors import EmptyAlgebra
from cartankit.matalg import (
    FdStarAlgebra,
    block_structure,
    generate_star_algebra,
    relative_commutant,
)
from cartankit.reduced import is_cartan_pair, realize
from cartankit.serialize import groupoid_to_json, twist_to_json
from cartankit.twist import (
    CocycleTwist,
    conjugate_twist,
    trivial_twist,
    validate_cocycle,
)
from conftest import (
    k4_nontrivial_sigma,
    random_coboundary,
    random_function,
    random_twist_corpus,
    ref_delta_images,
    subspace_equals,
)
from test_acceptance import _oracle_block_structure
from test_reduced import ref_function_of
from test_table_arrays import _corrupted_groupoids

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "cartankit"
#: Largest groupoid given to the oracle: its full SVD holds an n^3 x n^3
#: factor, 48 MB at 12 arrows and 3 GB at 24.
ORACLE_ARROWS = 12


# --- references -------------------------------------------------------------

def ref_masa(R):
    """The commutant certificate: (D' cap A == D, dim D' cap A - dim D)."""
    comm = relative_commutant(R.diagonal, R.algebra)
    return subspace_equals(comm, R.diagonal, 1e-7), comm.dim - R.diagonal.dim


def product_twist(m, H, sigma_h):
    """pair(m) x H, with sigma((i<-j, g), (j<-k, h)) = sigma_h(g, h)."""
    P = pair_groupoid(m)
    name = lambda a, g: f"{a}|{g}"
    units = [name(x, H.unit_arrow[H.units[0]]) for x in P.units]
    unit_of = {x: name(x, H.unit_arrow[H.units[0]]) for x in P.units}
    specs = [(name(a, g), unit_of[P.src[a]], unit_of[P.rng[a]],
              name(P.inv[a], H.inv[g])) for a in P.arrows for g in H.arrows]
    pairs, sigma = [], {}
    for (a, b), ab in P.compose_table.items():
        for (g, h), gh in H.compose_table.items():
            pairs.append((name(a, g), name(b, h), name(ab, gh)))
            sigma[(name(a, g), name(b, h))] = sigma_h[(g, h)]
    G = build_groupoid(units, specs, pairs,
                       {unit_of[x]: name(P.unit_arrow[x],
                                         H.unit_arrow[H.units[0]])
                        for x in P.units})
    return CocycleTwist(G, sigma)


def with_coboundary(T, rng):
    """T times a random coboundary."""
    c = random_coboundary(T.groupoid, rng)
    return CocycleTwist(T.groupoid,
                        {k: v * c.sigma[k] for k, v in T.sigma.items()})


def _product_cases():
    rng = np.random.default_rng(44)
    K = klein_four_groupoid()
    Z3 = cyclic_groupoid(3)
    flat, twisted = trivial_twist(K).sigma, k4_nontrivial_sigma(K).sigma
    out = []
    for m in (1, 2, 3):
        out += [
            (f"pair{m}xK4", product_twist(m, K, flat)),
            (f"pair{m}xK4s", product_twist(m, K, twisted)),
            (f"pair{m}xK4cob", with_coboundary(
                product_twist(m, K, flat), rng)),
            (f"pair{m}xK4s-cob", with_coboundary(
                product_twist(m, K, twisted), rng)),
            (f"pair{m}xZ3", with_coboundary(
                product_twist(m, Z3, trivial_twist(Z3).sigma), rng)),
        ]
    return out


def _k4s_pairs():
    rng = np.random.default_rng(45)
    return [(f"k4s+pair{k}", random_coboundary(
        disjoint_union(pair_groupoid(k), klein_four_groupoid(prefix="k")),
        rng, ("B.k",))) for k in range(1, 7)]


CASES = _product_cases() + _k4s_pairs()


def _check_against_generic(T):
    oracle = len(T.groupoid.arrows) <= ORACLE_ARROWS
    for k in (1, -1):
        R = realize(T, k)
        exact = R.block_structure()
        assert exact == block_structure(R.algebra)
        assert all(type(s) is int for s in exact)
        if oracle:
            assert exact == _oracle_block_structure(
                T if k == 1 else conjugate_twist(T))
        cert = is_cartan_pair(R)
        assert (cert.diagonal_is_masa, cert.masa_defect) == ref_masa(R)


# --- cross-checks ------------------------------------------------------------

class TestAgainstGenericPath:
    @pytest.mark.parametrize("seed", range(5))
    def test_random_corpus(self, seed):
        for T in random_twist_corpus(30, seed=seed):
            _check_against_generic(T)

    @pytest.mark.parametrize("label,T", CASES,
                             ids=[label for label, _ in CASES])
    def test_products_and_unions(self, label, T):
        _check_against_generic(T)

    def test_known_answers(self):
        K = klein_four_groupoid()
        cases = dict(CASES)
        assert realize(cases["pair3xK4s"]).block_structure() == (6,)
        assert realize(cases["pair3xK4s-cob"], -1).block_structure() == (6,)
        assert realize(cases["pair2xK4"]).block_structure() == (2, 2, 2, 2)
        assert realize(cases["pair3xZ3"]).block_structure() == (3, 3, 3)
        assert realize(cases["k4s+pair5"]).block_structure() == (2, 5)
        assert realize(k4_nontrivial_sigma(K)).block_structure() == (2,)
        assert realize(trivial_twist(pair_groupoid(20))).block_structure() \
            == (20,)
        cert = is_cartan_pair(realize(cases["pair3xK4s"]))
        assert cert.masa_defect == 9 and not cert.diagonal_is_masa

    def test_discrete_groupoid_has_no_linear_algebra(self, monkeypatch):
        """Trivial isotropy: the blocks are the orbit sizes, no center."""
        def refuse(*args, **kwargs):
            raise AssertionError("generic block structure called")

        monkeypatch.setattr(cartankit.reduced, "algebra_blocks", refuse)
        G = disjoint_union(pair_groupoid(3), pair_groupoid(1))
        assert realize(trivial_twist(G)).block_structure() == (1, 3)


class TestFunctionOf:
    def test_matches_least_squares(self):
        rng = np.random.default_rng(3)
        for T in random_twist_corpus(12, seed=9):
            for k in (1, -1):
                R = realize(T, k)
                M = rng.standard_normal((R.total_dim,) * 2) \
                    + 1j * rng.standard_normal((R.total_dim,) * 2)
                want, *_ = np.linalg.lstsq(ref_delta_images(R).T, M.ravel(),
                                           rcond=None)
                got = ref_function_of(R, M).values
                assert np.max(np.abs(got - want)) < 1e-12
                f = random_function(T, k, rng)
                assert np.max(np.abs(ref_function_of(R, R.represent(f)).values
                                     - f.values)) < 1e-12


# --- guards ------------------------------------------------------------------

def _count_commutants(monkeypatch):
    calls = []
    real = cartankit.matalg.relative_commutant

    def counted(A, within, *args, **kwargs):
        calls.append((A.dim, within.dim))
        return real(A, within, *args, **kwargs)

    monkeypatch.setattr(cartankit.matalg, "relative_commutant", counted)
    return calls


def _cstar(tmp_path, T, capsys):
    path = tmp_path / "t.json"
    path.write_text(json.dumps(twist_to_json(T)))
    assert cli.main(["cstar", str(path)]) == 0
    return json.loads(capsys.readouterr().out)


class TestNoCommutantOnCstar:
    @pytest.mark.parametrize("k", [2, 5, 8])
    def test_pair(self, tmp_path, capsys, monkeypatch, k):
        calls = _count_commutants(monkeypatch)
        T = random_coboundary(pair_groupoid(k), np.random.default_rng(k))
        report = _cstar(tmp_path, T, capsys)
        assert report["block_structure"] == [k]
        assert report["cartan"]["masa"] is True
        assert calls == []

    @pytest.mark.parametrize("k", [1, 4, 6])
    def test_k4s_union(self, tmp_path, capsys, monkeypatch, k):
        calls = _count_commutants(monkeypatch)
        T = random_coboundary(
            disjoint_union(pair_groupoid(k), klein_four_groupoid(prefix="k")),
            np.random.default_rng(k), ("B.k",))
        report = _cstar(tmp_path, T, capsys)
        assert report["block_structure"] == sorted([2, k])
        assert report["cartan"]["masa"] is False
        assert calls == [(4, 4)]

    def test_reduced_calls_no_commutant(self):
        tree = ast.parse((SRC / "reduced.py").read_text())
        called = {n.func.attr if isinstance(n.func, ast.Attribute)
                  else getattr(n.func, "id", None)
                  for n in ast.walk(tree) if isinstance(n, ast.Call)}
        assert not called & {"relative_commutant", "center"}
        imported = {a.asname or a.name for n in ast.walk(tree)
                    if isinstance(n, ast.ImportFrom) for a in n.names}
        assert not imported & {"relative_commutant", "center"}

    def test_no_least_squares_in_src(self):
        for path in SRC.glob("*.py"):
            assert "lstsq" not in path.read_text(), path.name


class TestCompareValidates:
    """The orbit-isotropy path reads valid tables only, so the two-twist
    ``compare`` reports table violations, as ``cstar`` does."""

    @pytest.mark.parametrize("label,G", _corrupted_groupoids(),
                             ids=lambda v: v if isinstance(v, str) else "")
    def test_corrupted_groupoid(self, tmp_path, capsys, label, G):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(groupoid_to_json(G)))
        good = tmp_path / "good.json"
        good.write_text(json.dumps(twist_to_json(trivial_twist(G))))
        assert cli.main(["compare", str(good), str(bad)]) == 1
        first, second = json.loads(capsys.readouterr().out)["violations"]
        T = trivial_twist(G)
        assert first == second == validate(G) + validate_cocycle(T) != []

    def test_valid_pair_unchanged(self, tmp_path, capsys):
        path = tmp_path / "t.json"
        path.write_text(json.dumps(twist_to_json(dict(CASES)["pair2xK4s"])))
        assert cli.main(["compare", str(path), str(path)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["block_structures"] == [[4], [4]]
        assert "violations" not in report


class TestZeroAlgebra:
    """A groupoid with no units passes validation and realizes to the zero
    algebra: no blocks, and a typed refusal wherever a unit is needed."""

    def test_block_structures_empty(self):
        R = realize(trivial_twist(build_groupoid([], [], [], {})))
        assert R.total_dim == 0
        assert R.block_structure() == ()
        # read off the (empty) pattern: the zero algebra, no norms
        assert R.algebra.dim == R.diagonal.dim == len(R.delta_norms()) == 0
        assert block_structure(R.algebra) == ()
        for n in (0, 3):
            zero = FdStarAlgebra(ambient_dim=n, basis=(),
                                 unit=np.zeros((n, n), dtype=complex))
            assert block_structure(zero) == ()

    def test_unit_needed_is_typed(self):
        R = realize(trivial_twist(build_groupoid([], [], [], {})))
        with pytest.raises(EmptyAlgebra):
            is_cartan_pair(R)
        with pytest.raises(EmptyAlgebra):
            generate_star_algebra(0, [])

    def test_compare_two_empty_twists(self, tmp_path, capsys):
        path = tmp_path / "empty.json"
        path.write_text(json.dumps(groupoid_to_json(
            build_groupoid([], [], [], {}))))
        assert cli.main(["compare", str(path), str(path)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["block_structures"] == [[], []]
        assert report["agree"] is True

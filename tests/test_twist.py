import numpy as np
import pytest

from cartankit.errors import (
    DegreeMismatch,
    FactorizationPropertyFails,
    TwistMismatch,
)
from cartankit.groupoid import disjoint_union, klein_four_groupoid, \
    pair_groupoid
from cartankit.twist import (
    CocycleTwist,
    EquivariantFunction,
    conjugate_twist,
    convolve,
    delta,
    involution,
    restrict_twist,
    transpose,
    trivial_twist,
    unit_function,
    validate_cocycle,
)
from conftest import random_coboundary, random_function, random_twist_corpus
from conftest import ref_structure_constants as structure_constants


class TestValidateCocycle:
    def test_trivial_on_k4(self, k4_triv):
        assert validate_cocycle(k4_triv) == []

    def test_nontrivial_on_k4(self, k4_ns):
        assert validate_cocycle(k4_ns) == []

    def test_modulus_violation(self, k4_ns):
        sigma = dict(k4_ns.sigma)
        key = next(k for k in sigma
                   if not k4_ns.groupoid.is_unit_arrow(k[0]))
        sigma[key] = 2.0 * sigma[key]
        bad = validate_cocycle(CocycleTwist(k4_ns.groupoid, sigma))
        assert any("modulus" in line for line in bad)

    def test_random_corpus_valid(self):
        for T in random_twist_corpus(10, seed=2):
            assert validate_cocycle(T) == []


class TestConjugate:
    def test_trivial_fixed(self, k4_triv):
        assert conjugate_twist(k4_triv).sigma == k4_triv.sigma

    def test_real_cocycle_fixed(self, k4_ns):
        C = conjugate_twist(k4_ns)
        for key in k4_ns.sigma:
            assert abs(C.sigma[key] - k4_ns.sigma[key]) < 1e-14

    def test_involutive(self):
        for T in random_twist_corpus(5, seed=3):
            CC = conjugate_twist(conjugate_twist(T))
            for key in T.sigma:
                assert abs(CC.sigma[key] - T.sigma[key]) < 1e-14


class TestConvolve:
    def test_pair2_delta_product(self, pair2_twist):
        f = delta(pair2_twist, 1, "u0<-u1")
        g = delta(pair2_twist, 1, "u1<-u0")
        h = convolve(f, g)
        assert abs(h["u0<-u0"] - 1.0) < 1e-12
        assert sum(abs(z) for z in h.values) == pytest.approx(1.0)

    def test_unit_function(self):
        rng = np.random.default_rng(0)
        for T in random_twist_corpus(5, seed=4):
            f = random_function(T, 1, rng)
            e = unit_function(T, 1)
            assert np.allclose(convolve(e, f).values, f.values)
            assert np.allclose(convolve(f, e).values, f.values)

    def test_k4_ns_anticommuting_generators(self, k4_ns):
        a, b = "k10", "k01"
        da, db = delta(k4_ns, 1, a), delta(k4_ns, 1, b)
        ab = convolve(da, db)
        ba = convolve(db, da)
        prod_arrow = k4_ns.groupoid.compose(a, b)
        assert abs(abs(ab[prod_arrow]) - 1.0) < 1e-12
        assert np.allclose(ab.values, -ba.values)

    def test_mismatch_errors(self, pair2_twist, k4_triv):
        f = delta(pair2_twist, 1, "u0<-u1")
        g = delta(k4_triv, 1, "k00")
        with pytest.raises(TwistMismatch):
            convolve(f, g)
        with pytest.raises(DegreeMismatch):
            convolve(f, delta(pair2_twist, -1, "u0<-u1"))


class TestInvolution:
    def test_pair2_delta(self, pair2_twist):
        f = involution(delta(pair2_twist, 1, "u0<-u1"))
        assert abs(f["u1<-u0"] - 1.0) < 1e-12

    def test_real_unit_function_fixed(self, pair2_twist):
        e = unit_function(pair2_twist, 1)
        assert np.allclose(involution(e).values, e.values)

    def test_k4_ns_involutive_and_unimodular(self, k4_ns):
        for a in k4_ns.groupoid.arrows:
            f = delta(k4_ns, 1, a)
            fs = involution(f)
            ia = k4_ns.groupoid.inv[a]
            assert abs(abs(fs[ia]) - 1.0) < 1e-12
            assert np.allclose(involution(fs).values, f.values)


class TestTranspose:
    def test_unit_fixed(self, pair2_twist):
        e = unit_function(pair2_twist, 1)
        assert np.allclose(transpose(e).values, e.values)
        assert transpose(e).degree == -1

    def test_matrix_transpose_on_pair2(self, pair2_twist):
        f = transpose(delta(pair2_twist, 1, "u0<-u1"))
        assert abs(f["u1<-u0"] - 1.0) < 1e-12

    def test_structure_constants_kpm(self):
        for T in random_twist_corpus(6, seed=5):
            for k in (1, -1):
                assert np.allclose(
                    structure_constants(T, k),
                    structure_constants(conjugate_twist(T), -k))

    @pytest.mark.parametrize("k", [1, -1])
    def test_delta_products_match_structure_constants(self, k):
        """convolve(delta_a, delta_b) is row (a, b) of the dense tensor, on
        every arrow pair of the corpus and of K4-sigma + pair(2)."""
        G = disjoint_union(klein_four_groupoid(), pair_groupoid(2))
        k4s = random_coboundary(G, np.random.default_rng(8), ("A.k",))
        for T in random_twist_corpus(6, seed=5) + [k4s]:
            S, idx = structure_constants(T, k), T.groupoid.arrays.index
            for a in T.groupoid.arrows:
                for b in T.groupoid.arrows:
                    got = convolve(delta(T, k, a), delta(T, k, b)).values
                    assert np.abs(got - S[idx[a], idx[b]]).max() < 1e-14


class TestRestrict:
    def test_whole_groupoid_identity(self, pair2_twist):
        rng = np.random.default_rng(1)
        f = random_function(pair2_twist, 1, rng)
        T2 = restrict_twist(pair2_twist, pair2_twist.groupoid.arrows)
        assert set(T2.sigma) == set(pair2_twist.sigma)

    def test_component_projection(self, pair2, k4):
        U = disjoint_union(pair2, k4)
        T = trivial_twist(U)
        H = [a for a in U.arrows if a.startswith("B.")]
        TH = restrict_twist(T, H)
        assert len(TH.groupoid.arrows) == 4

    def test_rejects_missing_factorization(self, pair2_twist):
        H = list(pair2_twist.groupoid.unit_arrow.values())
        with pytest.raises(FactorizationPropertyFails):
            restrict_twist(pair2_twist, H)

    def test_restrict_compatible_with_convolution(self, pair2, k4):
        rng = np.random.default_rng(2)
        U = disjoint_union(pair2, k4)
        from conftest import random_coboundary
        T = random_coboundary(U, rng, ("B.k",))
        H = [a for a in U.arrows if a.startswith("B.")]
        TH = restrict_twist(T, H)
        idx = [T.arrow_index[a] for a in TH.groupoid.arrows]
        f, g = random_function(T, 1, rng), random_function(T, 1, rng)
        fh = EquivariantFunction(TH, 1, f.values[idx])
        gh = EquivariantFunction(TH, 1, g.values[idx])
        assert np.allclose(convolve(f, g).values[idx],
                           convolve(fh, gh).values)


class TestLaws:
    def test_associativity(self):
        rng = np.random.default_rng(6)
        for T in random_twist_corpus(12, seed=7):
            for k in (1, -1):
                f, g, h = (random_function(T, k, rng) for _ in range(3))
                lhs = convolve(convolve(f, g), h).values
                rhs = convolve(f, convolve(g, h)).values
                assert np.max(np.abs(lhs - rhs)) < 1e-10

    def test_star_antimultiplicative(self):
        rng = np.random.default_rng(8)
        for T in random_twist_corpus(12, seed=9):
            for k in (1, -1):
                f, g = random_function(T, k, rng), random_function(T, k, rng)
                lhs = involution(convolve(f, g)).values
                rhs = convolve(involution(g), involution(f)).values
                assert np.max(np.abs(lhs - rhs)) < 1e-10

    def test_transpose_laws(self):
        rng = np.random.default_rng(10)
        for T in random_twist_corpus(8, seed=11):
            for k in (1, -1):
                f, g = random_function(T, k, rng), random_function(T, k, rng)
                assert transpose(f).degree == -k
                assert np.allclose(transpose(transpose(f)).values, f.values)
                assert np.max(np.abs(
                    transpose(convolve(f, g)).values
                    - convolve(transpose(g), transpose(f)).values)) < 1e-10
                assert np.max(np.abs(
                    transpose(involution(f)).values
                    - involution(transpose(f)).values)) < 1e-10

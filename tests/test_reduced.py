import numpy as np
import pytest

from cartankit.errors import UnknownUnit
from cartankit.groupoid import disjoint_union, pair_groupoid
from cartankit.matalg import operator_norm
from cartankit.reduced import (
    groupoid_inclusion,
    is_cartan_pair,
    realize,
    reduced_norm,
    regular_representation,
)
from cartankit.twist import (
    EquivariantFunction,
    convolve,
    delta,
    involution,
    restrict_twist,
    transpose,
    trivial_twist,
    unit_function,
)
from conftest import random_function, random_twist_corpus, ref_delta_images


def ref_function_of(R, M):
    """Invert the representation on its image.  The delta images have
    disjoint supports, so they are HS-orthogonal and the orthogonal
    projection onto the image has coefficients <M, delta_g>/|delta_g|^2."""
    rows = ref_delta_images(R)
    coeffs = rows.conj() @ np.asarray(M, dtype=complex).ravel()
    return EquivariantFunction(R.twist, R.degree,
                               coeffs / np.linalg.norm(rows, axis=1) ** 2)


def ref_expectation_matrix(R, M):
    """The canonical expectation of R on a matrix of its realization."""
    return R.represent(R.expectation(ref_function_of(R, M)))


class TestRegularRepresentation:
    def test_pair2_matrix_unit(self, pair2_twist):
        M = regular_representation(delta(pair2_twist, 1, "u0<-u1"), "u0")
        assert M.shape == (2, 2)
        assert abs(np.linalg.norm(M) - 1.0) < 1e-12
        assert abs(operator_norm(M) - 1.0) < 1e-12
        # partial isometry onto a single coordinate
        assert np.allclose(M @ M.conj().T @ M, M)

    def test_unit_function_is_identity(self, pair2_twist):
        e = unit_function(pair2_twist, 1)
        for x in pair2_twist.groupoid.units:
            assert np.allclose(regular_representation(e, x), np.eye(2))

    def test_unknown_unit(self, pair2_twist):
        with pytest.raises(UnknownUnit):
            regular_representation(unit_function(pair2_twist, 1), "zz")

    def test_multiplicative(self):
        rng = np.random.default_rng(0)
        for T in random_twist_corpus(8, seed=21):
            for k in (1, -1):
                f, g = random_function(T, k, rng), random_function(T, k, rng)
                for x in T.groupoid.orbit_representatives():
                    lhs = regular_representation(convolve(f, g), x)
                    rhs = (regular_representation(f, x)
                           @ regular_representation(g, x))
                    assert np.max(np.abs(lhs - rhs)) < 1e-10

    def test_star_to_adjoint(self):
        rng = np.random.default_rng(1)
        for T in random_twist_corpus(8, seed=22):
            for k in (1, -1):
                f = random_function(T, k, rng)
                for x in T.groupoid.orbit_representatives():
                    lhs = regular_representation(involution(f), x)
                    rhs = regular_representation(f, x).conj().T
                    assert np.max(np.abs(lhs - rhs)) < 1e-10

    def test_k4_ns_generators_anticommute(self, k4_ns):
        unit = k4_ns.groupoid.units[0]
        u = regular_representation(delta(k4_ns, 1, "k10"), unit)
        v = regular_representation(delta(k4_ns, 1, "k01"), unit)
        for w in (u, v):
            assert np.allclose(w @ w.conj().T, np.eye(4))
        assert np.allclose(u @ v, -v @ u)


class TestReducedNorm:
    def test_unit(self, pair2_twist):
        assert abs(reduced_norm(unit_function(pair2_twist, 1)) - 1.0) < 1e-12

    def test_deltas_have_norm_one(self):
        for T in random_twist_corpus(6, seed=23):
            for a in T.groupoid.arrows:
                assert abs(reduced_norm(delta(T, 1, a)) - 1.0) < 1e-10

    def test_row_vector_sqrt2(self, pair2_twist):
        f = delta(pair2_twist, 1, "u0<-u0") + delta(pair2_twist, 1, "u0<-u1")
        assert abs(reduced_norm(f) - np.sqrt(2.0)) < 1e-12

    def test_zero(self, pair2_twist):
        f = 0.0 * unit_function(pair2_twist, 1)
        assert reduced_norm(f) == pytest.approx(0.0)

    def test_cstar_identity(self):
        rng = np.random.default_rng(2)
        for T in random_twist_corpus(10, seed=24):
            for k in (1, -1):
                f = random_function(T, k, rng)
                lhs = reduced_norm(convolve(involution(f), f))
                assert abs(lhs - reduced_norm(f) ** 2) < 1e-8 * (1 + lhs)

    def test_transpose_isometric(self):
        rng = np.random.default_rng(3)
        for T in random_twist_corpus(8, seed=25):
            f = random_function(T, 1, rng)
            assert abs(reduced_norm(transpose(f))
                       - reduced_norm(f)) < 1e-9

    def test_restriction_contractive(self, pair2, k4):
        rng = np.random.default_rng(4)
        U = disjoint_union(pair2, k4)
        from conftest import random_coboundary
        T = random_coboundary(U, rng, ("B.k",))
        H = [a for a in U.arrows if a.startswith("B.")]
        TH = restrict_twist(T, H)
        idx = [T.arrow_index[a] for a in TH.groupoid.arrows]
        for _ in range(5):
            f = random_function(T, 1, rng)
            fh = EquivariantFunction(TH, 1, f.values[idx])
            assert reduced_norm(fh) <= reduced_norm(f) + 1e-10


class TestExpectation:
    def test_pointwise_norm_identity(self):
        """E(f* f)(x) = sum over arrows with source x of |f(a)|^2."""
        rng = np.random.default_rng(5)
        for T in random_twist_corpus(8, seed=26):
            R = realize(T)
            f = random_function(T, 1, rng)
            ff = R.expectation(convolve(involution(f), f))
            G = T.groupoid
            for x, e in G.unit_arrow.items():
                want = sum(abs(f[a]) ** 2 for a in G.arrows_with_source(x))
                assert abs(ff[e] - want) < 1e-10

    def test_idempotent_and_module_map(self):
        rng = np.random.default_rng(6)
        for T in random_twist_corpus(6, seed=27):
            R = realize(T)
            f = random_function(T, 1, rng)
            Ef = R.expectation(f)
            assert np.allclose(R.expectation(Ef).values, Ef.values)
            # bimodule property over the diagonal
            e0 = delta(T, 1, next(iter(T.groupoid.unit_arrow.values())))
            lhs = R.expectation(convolve(e0, convolve(f, e0)))
            rhs = convolve(e0, convolve(R.expectation(f), e0))
            assert np.max(np.abs(lhs.values - rhs.values)) < 1e-10

    def test_faithful(self):
        rng = np.random.default_rng(7)
        for T in random_twist_corpus(6, seed=28):
            R = realize(T)
            f = random_function(T, 1, rng)
            ff = R.expectation(convolve(involution(f), f))
            total = float(np.real(np.sum(ff.values)))
            assert total > 1e-6 * float(np.sum(np.abs(f.values) ** 2))

    def test_expectation_matrix_is_diagonal_part(self, pair2_twist):
        rng = np.random.default_rng(8)
        R = realize(pair2_twist)
        f = random_function(pair2_twist, 1, rng)
        M = R.represent(f)
        EM = ref_expectation_matrix(R, M)
        assert R.diagonal.contains(EM, 1e-8)
        assert np.allclose(np.diag(EM), np.diag(M))


class TestRealize:
    def test_pair2_is_m2(self, pair2_twist):
        R = realize(pair2_twist)
        assert R.total_dim == 2
        assert R.algebra.dim == 4
        assert R.diagonal.dim == 2

    def test_k4_trivial_is_c4(self, k4_triv):
        R = realize(k4_triv)
        assert R.algebra.dim == 4
        assert R.algebra.is_abelian()

    def test_k4_ns_is_m2(self, k4_ns):
        R = realize(k4_ns)
        assert R.total_dim == 4
        assert R.algebra.dim == 4
        assert not R.algebra.is_abelian()

    def test_orbit_dedup(self):
        # one block per orbit: pair groupoid of n gives an n-dim space
        for n in (2, 3, 4):
            R = realize(trivial_twist(pair_groupoid(n)))
            assert R.total_dim == n
            assert R.algebra.dim == n * n

    def test_function_of_round_trip(self):
        rng = np.random.default_rng(9)
        for T in random_twist_corpus(6, seed=29):
            R = realize(T)
            f = random_function(T, 1, rng)
            g = ref_function_of(R, R.represent(f))
            assert np.max(np.abs(R.represent(g) - R.represent(f))) < 1e-9

    def test_representation_isometric(self):
        rng = np.random.default_rng(10)
        for T in random_twist_corpus(6, seed=30):
            R = realize(T)
            f = random_function(T, 1, rng)
            assert abs(operator_norm(R.represent(f))
                       - reduced_norm(f)) < 1e-9


class TestCartanPair:
    def test_pair2_is_cartan(self, pair2_twist):
        cert = is_cartan_pair(realize(pair2_twist))
        assert cert.is_cartan
        assert cert.masa_defect == 0

    def test_k4_trivial_not_cartan(self, k4_triv):
        cert = is_cartan_pair(realize(k4_triv))
        assert not cert.diagonal_is_masa
        assert cert.masa_defect == 3
        assert cert.regular and cert.expectation_faithful
        assert not cert.is_cartan

    def test_k4_ns_not_cartan(self, k4_ns):
        cert = is_cartan_pair(realize(k4_ns))
        assert not cert.diagonal_is_masa
        assert not cert.is_cartan

    def test_disjoint_union_of_pairs_is_cartan(self):
        G = disjoint_union(pair_groupoid(2), pair_groupoid(3))
        cert = is_cartan_pair(realize(trivial_twist(G)))
        assert cert.is_cartan


class TestGroupoidInclusion:
    def test_pair2_round(self, pair2_twist):
        inc = groupoid_inclusion(realize(pair2_twist))
        assert inc.C.dim == 4
        assert inc.D.dim == 2
        assert inc.is_masa

import numpy as np
import pytest

from cartankit.envelope import (
    build_cover,
    cartan_envelope,
    cover_comparison,
    covers_nested,
    eig_inverse,
    eig_product,
    eigen_twist,
    eigenfunctional,
    envelope_uniqueness_crosscheck,
    theta_F,
)
from cartankit.errors import (
    EnvelopeAbsent,
    InvalidMode,
    NotComposable,
    NotCovering,
    NotNested,
    NotRegular,
    SourceVanishes,
)
from cartankit.groupoid import find_isomorphism, pair_groupoid
from cartankit.inclusion import (
    canonical_corner_state,
    is_compatible_state,
    make_inclusion,
    mod_state_from_density,
)
from cartankit.matalg import (
    block_structure,
    generate_star_algebra,
    hs_norm,
    operator_norm,
)
from cartankit.reduced import groupoid_inclusion, realize, reduced_norm
from cartankit.twist import EquivariantFunction, delta, validate_cocycle
from conftest import UNEQUAL_RANK_WITNESS, E, k4_nontrivial_sigma, \
    mndn_inclusion, ref_essential_inclusion, unequal_rank_inclusion


def corner_of(inc, p):
    return min(range(inc.n_corners),
               key=lambda i: hs_norm(inc.min_projs[i] - p))


def sigma_state(inc, i, j):
    """The canonical corner state at the e_jj corner of MnDn."""
    return canonical_corner_state(inc, corner_of(inc, E(j, j,
                                                        inc.C.ambient_dim)))


def ref_quotient(cmp, f):
    """Restrict a function over the big twist of a ``CoverComparison`` to
    its small twist, along ``arrow_map``."""
    Ts = cmp.data_small.twist
    return EquivariantFunction(Ts, f.degree, [
        f[cmp.arrow_map[a]] for a in Ts.groupoid.arrows])


def diagonal_scalar_inclusion():
    """(D2, C·1): the nested-cover fixture."""
    C = generate_star_algebra(2, [E(0, 0, 2), E(1, 1, 2)])
    D = generate_star_algebra(2, [np.eye(2)])
    return make_inclusion(C, D, [np.diag([1.0, -1.0]).astype(complex)])


def k4_cartan_inclusion():
    """The Cartan pair carried by the nontrivially twisted Klein group:
    ambient realization with D generated by one represented delta."""
    from cartankit.groupoid import klein_four_groupoid
    T = k4_nontrivial_sigma(klein_four_groupoid())
    R = realize(T)
    deltas = [R.represent(delta(T, 1, a)) for a in T.groupoid.arrows]
    u = R.represent(delta(T, 1, "k10"))
    D = generate_star_algebra(R.total_dim, [u])
    return make_inclusion(R.algebra, D, deltas)


class TestEigenfunctional:
    def test_phi_ij_matrix_entry(self, m3d3):
        rng = np.random.default_rng(0)
        A = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        for i in range(3):
            for j in range(3):
                phi = eigenfunctional(m3d3, E(i, j, 3), sigma_state(m3d3, 0, j))
                assert abs(phi(A) - A[i, j]) < 1e-10

    def test_source_and_range(self, m3d3):
        phi = eigenfunctional(m3d3, E(0, 2, 3), sigma_state(m3d3, 0, 2))
        for d in m3d3.D.basis:
            assert abs(phi.source(d) - d[2, 2]) < 1e-10
            assert abs(phi.range(d) - d[0, 0]) < 1e-10

    def test_unit_gives_back_state(self, m2d2):
        f = canonical_corner_state(m2d2, 0)
        phi = eigenfunctional(m2d2, np.eye(2, dtype=complex), f)
        assert np.max(np.abs(phi.values - f.values)) < 1e-10

    def test_source_vanishes(self, m2d2):
        f = sigma_state(m2d2, 0, 0)
        with pytest.raises(SourceVanishes):
            eigenfunctional(m2d2, E(0, 1, 2), f)  # f(v*v) = f(e11-corner)=0

    def test_cefform_b_reconstruction(self, m3d3):
        phi = eigenfunctional(m3d3, E(1, 2, 3), sigma_state(m3d3, 0, 2))
        for w in (E(1, 2, 3), 2.0 * E(1, 2, 3)):
            val = phi(w)
            assert abs(val.imag) < 1e-10 and val.real > 0
            rebuilt = eigenfunctional(m3d3, w, phi.source)
            assert np.max(np.abs(rebuilt.values - phi.values)) < 1e-9

    def test_cefform_a_ii_eigen_relation(self, m3d3):
        v = E(1, 2, 3)
        phi = eigenfunctional(m3d3, v, sigma_state(m3d3, 0, 2))
        for x in m3d3.C.basis:
            lhs = phi.source(v.conj().T @ x @ v)
            rhs = phi.source(v.conj().T @ v) * phi.range(x)
            assert abs(lhs - rhs) < 1e-9

    def test_cefform_e_compatible_endpoints(self, m3d3):
        phi = eigenfunctional(m3d3, E(0, 1, 3), sigma_state(m3d3, 0, 1))
        for state in (phi.source, phi.range):
            ok, _ = is_compatible_state(m3d3, state)
            assert ok

    def test_equality_criterion(self, m3d3):
        f = sigma_state(m3d3, 0, 2)
        phi = eigenfunctional(m3d3, E(0, 2, 3), f)
        same = eigenfunctional(m3d3, 3.0 * E(0, 2, 3), f)
        rotated = eigenfunctional(m3d3, 1j * E(0, 2, 3), f)
        other = eigenfunctional(m3d3, E(1, 2, 3), f)
        assert phi.equal(same)
        assert not phi.equal(rotated)
        assert phi.phase_class_equal(rotated)
        assert not phi.phase_class_equal(other)


class TestEigProductInverse:
    def test_composition_of_matrix_units(self, m3d3):
        p12 = eigenfunctional(m3d3, E(0, 1, 3), sigma_state(m3d3, 0, 1))
        p23 = eigenfunctional(m3d3, E(1, 2, 3), sigma_state(m3d3, 0, 2))
        p13 = eig_product(p12, p23)
        rng = np.random.default_rng(1)
        A = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        assert abs(p13(A) - A[0, 2]) < 1e-10

    def test_not_composable(self, m3d3):
        p12 = eigenfunctional(m3d3, E(0, 1, 3), sigma_state(m3d3, 0, 1))
        with pytest.raises(NotComposable):
            eig_product(p12, p12)

    def test_inverse_formula(self, m3d3):
        phi = eigenfunctional(m3d3, E(0, 2, 3), sigma_state(m3d3, 0, 2))
        inv = eig_inverse(phi)
        rng = np.random.default_rng(2)
        A = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        assert abs(inv(A) - np.conj(phi(A.conj().T))) < 1e-10

    def test_inverse_involutive(self, m3d3):
        phi = eigenfunctional(m3d3, E(0, 2, 3), sigma_state(m3d3, 0, 2))
        assert eig_inverse(eig_inverse(phi)).equal(phi)

    def test_product_with_inverse_is_range_unit(self, m3d3):
        phi = eigenfunctional(m3d3, E(0, 2, 3), sigma_state(m3d3, 0, 2))
        unit = eig_product(phi, eig_inverse(phi))
        assert np.max(np.abs(unit.values - phi.range.values)) < 1e-9


class TestBuildCover:
    def test_mndn(self, m3d3):
        cover = build_cover(m3d3)
        assert len(cover.states) == 3

    def test_abelian_self(self):
        D = generate_star_algebra(2, [E(0, 0, 2), E(1, 1, 2)])
        inc = make_inclusion(D, D, list(D.basis))
        cover = build_cover(inc)
        assert len(cover.states) == 2

    def test_mode_and_states_must_agree(self, m3d3):
        """States given to the default mode, or none to "custom", are
        refused as an unknown mode is, naming the mode, by a typed error
        that callers catching ValueError still catch."""
        rho = build_cover(m3d3).states[0]
        with pytest.raises(InvalidMode, match="'strongly_compatible' takes"):
            build_cover(m3d3, F=[rho])
        with pytest.raises(InvalidMode, match="'custom' needs the states"):
            build_cover(m3d3, "custom")
        with pytest.raises(InvalidMode, match="unknown cover mode 'other'"):
            build_cover(m3d3, "other", F=[rho])
        assert issubclass(InvalidMode, ValueError)
        assert len(build_cover(m3d3, "custom", F=build_cover(m3d3).states)
                   .states) == 3

    def test_m2c_lambda_cover(self, m2c):
        rho = mod_state_from_density(m2c, 0, np.diag([0, 0, 1.0]))
        cover = build_cover(m2c, "custom", F=[rho])
        assert cover.certified

    def test_missing_corner_rejected(self, m2d2):
        with pytest.raises(NotCovering):
            build_cover(m2d2, "custom", F=[canonical_corner_state(m2d2, 0)])

    def test_incompatible_state_rejected(self, m2c):
        rho = mod_state_from_density(m2c, 0, np.diag([0.5, 0.5, 0]))
        with pytest.raises(NotCovering):
            build_cover(m2c, "custom", F=[rho])

    def test_nested_detection(self):
        inc = diagonal_scalar_inclusion()
        s1 = mod_state_from_density(inc, 0, np.diag([1.0, 0]))
        s2 = mod_state_from_density(inc, 0, np.diag([0, 1.0]))
        F1 = build_cover(inc, "custom", F=[s1])
        F2 = build_cover(inc, "custom", F=[s1, s2])
        assert covers_nested(F1, F2) == [0]
        assert covers_nested(F2, F1) is None


class TestEigenTwist:
    def test_mndn_pair_groupoid(self, m3d3):
        data = eigen_twist(m3d3, build_cover(m3d3))
        G = data.twist.groupoid
        assert find_isomorphism(G, pair_groupoid(3)) is not None
        assert validate_cocycle(data.twist) == []
        # the cocycle class is trivial: canonical phases may contribute a
        # coboundary, but the realization must still be a full matrix block
        assert block_structure(realize(data.twist).algebra) == (3,)

    def test_abelian_units_only(self):
        D = generate_star_algebra(2, [E(0, 0, 2), E(1, 1, 2)])
        inc = make_inclusion(D, D, list(D.basis))
        data = eigen_twist(inc, build_cover(inc))
        G = data.twist.groupoid
        assert len(G.units) == 2 and len(G.arrows) == 2

    def test_k4_cartan_fixture_round_trip(self):
        inc = k4_cartan_inclusion()
        data = eigen_twist(inc, build_cover(inc))
        assert validate_cocycle(data.twist) == []
        assert block_structure(realize(data.twist).algebra) == (2,)


class TestThetaF:
    def test_d_supported_on_units(self, m2d2):
        data = eigen_twist(m2d2, build_cover(m2d2))
        G = data.twist.groupoid
        units = {G.unit_arrow[x] for x in G.units}
        for d in m2d2.D.basis:
            f = theta_F(data, d)
            for a in G.arrows:
                if a not in units:
                    assert abs(f[a]) < 1e-10

    def test_matrix_unit_is_delta(self, m3d3):
        data = eigen_twist(m3d3, build_cover(m3d3))
        f = theta_F(data, E(0, 1, 3))
        mags = sorted(abs(z) for z in f.values)
        assert abs(mags[-1] - 1.0) < 1e-9
        assert all(m < 1e-9 for m in mags[:-1])

    def test_homomorphism_laws(self, m3d3):
        from cartankit.twist import convolve, involution
        data = eigen_twist(m3d3, build_cover(m3d3))
        rng = np.random.default_rng(3)
        for _ in range(5):
            a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            lhs = theta_F(data, a @ b).values
            rhs = convolve(theta_F(data, a), theta_F(data, b)).values
            assert np.max(np.abs(lhs - rhs)) < 1e-9
            star = theta_F(data, a.conj().T).values
            assert np.max(np.abs(star
                                 - involution(theta_F(data, a)).values)) < 1e-9

    def test_isometric_when_kernel_zero(self, m2d2):
        data = eigen_twist(m2d2, build_cover(m2d2))
        rng = np.random.default_rng(4)
        for _ in range(5):
            a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            assert abs(reduced_norm(theta_F(data, a))
                       - operator_norm(a)) < 1e-8


class TestEssentialInclusion:
    def test_masa_in_factor(self, m2d2):
        assert ref_essential_inclusion(m2d2.C, m2d2.D)

    def test_central_summand_missed(self):
        C = generate_star_algebra(3, [E(i, i, 3) for i in range(3)])
        B = generate_star_algebra(3, [E(0, 0, 3), E(1, 1, 3) + E(2, 2, 3)])
        assert not ref_essential_inclusion(C, B)

    def test_self(self, m2d2):
        assert ref_essential_inclusion(m2d2.D, m2d2.D)


class TestCartanEnvelope:
    def test_mndn_success(self, m3d3):
        cert = cartan_envelope(m3d3)
        assert cert.success
        assert cert.theta_isomorphism
        assert block_structure(cert.realization.algebra) == (3,)

    def test_abelian_success(self):
        D = generate_star_algebra(2, [E(0, 0, 2), E(1, 1, 2)])
        inc = make_inclusion(D, D, list(D.basis))
        cert = cartan_envelope(inc)
        assert cert.success
        assert cert.realization.algebra.is_abelian()

    def test_k4_fixture_success(self):
        cert = cartan_envelope(k4_cartan_inclusion())
        assert cert.success
        assert cert.theta_isomorphism
        assert block_structure(cert.realization.algebra) == (2,)

    def test_m2c_rejected(self, m2c):
        cert = cartan_envelope(m2c)
        assert not cert.success
        assert not cert.has_unique_pseudo_expectation
        assert not cert.dc_abelian
        assert "non-abelian" in cert.rejection_reason

    def test_requires_regular(self):
        """M_3 over span{e11 + e22, e33}; the refusal names the slice."""
        with pytest.raises(NotRegular) as err:
            cartan_envelope(unequal_rank_inclusion())
        assert str(err.value) == ("Cartan envelope requires a regular "
                                  "inclusion" + UNEQUAL_RANK_WITNESS)
        assert err.value.witness == (0, 1, 2, 1, 4, 1, 2)


class TestCoverComparison:
    def test_identity(self, m2d2):
        cover = build_cover(m2d2)
        cmp = cover_comparison(m2d2, cover, cover)
        assert cmp.dim_big == cmp.dim_small
        assert cmp.intertwining_residual < 1e-9

    def test_strict_nesting_dimension_drop(self):
        inc = diagonal_scalar_inclusion()
        s1 = mod_state_from_density(inc, 0, np.diag([1.0, 0]))
        s2 = mod_state_from_density(inc, 0, np.diag([0, 1.0]))
        F1 = build_cover(inc, "custom", F=[s1])
        F2 = build_cover(inc, "custom", F=[s1, s2])
        cmp = cover_comparison(inc, F1, F2)
        assert cmp.dim_big == 2 and cmp.dim_small == 1
        assert cmp.intertwining_residual < 1e-9

    def test_quotient_restricts(self):
        inc = diagonal_scalar_inclusion()
        s1 = mod_state_from_density(inc, 0, np.diag([1.0, 0]))
        s2 = mod_state_from_density(inc, 0, np.diag([0, 1.0]))
        F1 = build_cover(inc, "custom", F=[s1])
        F2 = build_cover(inc, "custom", F=[s1, s2])
        cmp = cover_comparison(inc, F1, F2)
        x = np.diag([2.0, 5.0]).astype(complex)
        q = ref_quotient(cmp, theta_F(cmp.data_big, x))
        assert np.max(np.abs(q.values
                             - theta_F(cmp.data_small, x).values)) < 1e-9

    def test_not_nested(self):
        inc = diagonal_scalar_inclusion()
        s1 = mod_state_from_density(inc, 0, np.diag([1.0, 0]))
        s2 = mod_state_from_density(inc, 0, np.diag([0, 1.0]))
        F1 = build_cover(inc, "custom", F=[s1])
        F2 = build_cover(inc, "custom", F=[s2])
        with pytest.raises(NotNested):
            cover_comparison(inc, F1, F2)


class TestUniquenessCrosscheck:
    def test_mndn(self):
        for n in (2, 3):
            assert envelope_uniqueness_crosscheck(mndn_inclusion(n))

    def test_abelian(self):
        D = generate_star_algebra(2, [E(0, 0, 2), E(1, 1, 2)])
        inc = make_inclusion(D, D, list(D.basis))
        assert envelope_uniqueness_crosscheck(inc)

    def test_realized_pair_groupoid(self, pair2_twist):
        inc = groupoid_inclusion(realize(pair2_twist))
        assert envelope_uniqueness_crosscheck(inc)

    def test_absent_for_m2c(self, m2c):
        with pytest.raises(EnvelopeAbsent):
            envelope_uniqueness_crosscheck(m2c)

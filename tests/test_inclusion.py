import inspect

import numpy as np
import pytest

import cartankit.inclusion

from cartankit.errors import (
    NonUniquePseudoExpectation,
    NotANormalizer,
    NotInvariant,
    NotRegular,
    OutsideAmbient,
)
from cartankit.inclusion import (
    PseudoExpectation,
    beta,
    canonical_corner_state,
    canonical_expectation,
    fixed_point_ideal,
    fixed_set_check,
    is_compatible_state,
    is_normalizer,
    left_kernel,
    make_inclusion,
    mod_state_from_density,
    mod_states,
    pseudo_expectations,
    radical_ideal,
    strongly_compatible,
    theta,
)
from cartankit.matalg import NORMALIZER_TOL, generate_star_algebra, hs_norm
from conftest import UNEQUAL_RANK_WITNESS, E, mndn_inclusion, \
    unequal_rank_inclusion
from test_stacked_kernel import ref_check_mod_state, ref_transported


def corner_of(inc, p):
    """Index of the minimal projection of D closest to p."""
    return min(range(inc.n_corners),
               key=lambda i: hs_norm(inc.min_projs[i] - p))


def m2_plus_c_inclusion():
    """(M2 + C, D3) inside M3, with v = e12 + e33 among the normalizers."""
    gens = [E(0, 1, 3), E(1, 0, 3), E(0, 0, 3), E(1, 1, 3), E(2, 2, 3)]
    C = generate_star_algebra(3, gens)
    D = generate_star_algebra(3, [E(i, i, 3) for i in range(3)])
    return make_inclusion(C, D, [E(0, 1, 3) + E(2, 2, 3), E(0, 1, 3)])


def central_summand_inclusion():
    """(D3, span{e11, e22+e33}): regular, with non-scalar second corner."""
    C = generate_star_algebra(3, [E(i, i, 3) for i in range(3)])
    D = generate_star_algebra(3, [E(0, 0, 3), E(1, 1, 3) + E(2, 2, 3)])
    u = np.diag([1.0, 1.0, -1.0]).astype(complex)
    return make_inclusion(C, D, [u, np.diag([0, 1.0, -1.0]).astype(complex)])


class TestIsNormalizer:
    def test_elements_of_d(self, m2d2):
        for d in m2d2.D.basis:
            assert is_normalizer(m2d2, d)

    def test_matrix_unit(self, m2d2):
        assert is_normalizer(m2d2, E(0, 1, 2))

    def test_sum_fails(self, m2d2):
        assert not is_normalizer(m2d2, E(0, 1, 2) + E(0, 0, 2))

    def test_outside_ambient(self, m2c):
        with pytest.raises(OutsideAmbient):
            is_normalizer(m2c, E(0, 2, 3))

    def test_make_inclusion_rejects_bad_gen(self, m2d2):
        with pytest.raises(NotANormalizer):
            make_inclusion(m2d2.C, m2d2.D, [E(0, 1, 2) + E(0, 0, 2)])

    def test_default_is_the_applied_cut(self, m2d2, monkeypatch):
        """``is_normalizer`` and ``make_inclusion`` pass the cut that
        ``_normalizer_verdicts`` applies, ``NORMALIZER_TOL``."""
        eps = inspect.signature(is_normalizer).parameters["eps"].default
        assert eps == NORMALIZER_TOL
        seen, real = [], cartankit.inclusion._normalizer_verdicts
        monkeypatch.setattr(cartankit.inclusion, "_normalizer_verdicts",
                            lambda inc, V, eps: seen.append(eps)
                            or real(inc, V, eps))
        make_inclusion(m2d2.C, m2d2.D, [E(0, 1, 2)])
        is_normalizer(m2d2, E(0, 1, 2))
        assert seen == [NORMALIZER_TOL] * 2

    @pytest.mark.parametrize("eps", [1e-12, 1e-9, 1e-7])
    def test_smaller_eps_cannot_tighten(self, m2d2, eps):
        """v = E_01 + 3e-8 E_00 puts v* E_00 v about 4.2e-8 off D: under
        the 1e-7 cut, which no smaller eps tightens."""
        v = E(0, 1, 2) + 3e-8 * E(0, 0, 2)
        assert is_normalizer(m2d2, v, eps)
        assert is_normalizer(m2d2, v)
        assert not is_normalizer(m2d2, E(0, 1, 2) + 3e-6 * E(0, 0, 2), eps)


class TestBeta:
    def test_matrix_unit(self, m2d2):
        v = E(0, 1, 2)
        i1 = corner_of(m2d2, E(1, 1, 2))
        i0 = corner_of(m2d2, E(0, 0, 2))
        assert beta(m2d2, v) == {i1: i0}

    def test_diagonal_unitary_identity(self, m2d2):
        u = np.diag([1.0, 1j])
        assert beta(m2d2, u) == {0: 0, 1: 1}

    def test_partial_isometry_domain(self, m3d3):
        v = E(2, 0, 3)  # v*v = p at e11-corner
        b = beta(m3d3, v)
        assert set(b) == {corner_of(m3d3, E(0, 0, 3))}

    def test_multiplicative(self, m3d3):
        gens = [E(0, 1, 3), E(1, 2, 3), E(2, 0, 3), E(1, 1, 3)]
        for v in gens:
            for w in gens:
                bv, bw, bvw = beta(m3d3, v), beta(m3d3, w), \
                    beta(m3d3, v @ w)
                composed = {i: bv[j] for i, j in bw.items() if j in bv}
                assert bvw == composed

    def test_inverse(self, m3d3):
        for v in (E(0, 1, 3), E(1, 2, 3) + E(0, 0, 3)):
            b = beta(m3d3, v)
            binv = beta(m3d3, v.conj().T)
            assert binv == {j: i for i, j in b.items()}


class TestTheta:
    def test_matrix_unit(self, m2d2):
        v = E(0, 1, 2)
        assert hs_norm(theta(m2d2, v).apply(E(0, 0, 2)) - E(1, 1, 2)) < 1e-10

    def test_unit_is_identity(self, m2d2):
        th = theta(m2d2, np.eye(2, dtype=complex))
        for d in m2d2.D.basis:
            assert hs_norm(th.apply(d) - d) < 1e-10

    def test_character_intertwining(self, m3d3):
        v = E(0, 2, 3) + E(1, 1, 3)
        th = theta(m3d3, v)
        b = beta(m3d3, v)
        for i, j in b.items():
            for d in m3d3.D.basis:
                lhs = m3d3.char(i, th.apply(v @ v.conj().T @ d))
                rhs = m3d3.char(j, v @ v.conj().T @ d)
                assert abs(lhs - rhs) < 1e-9


class TestFixedPointIdeal:
    def test_diagonal_unitary_gives_d(self, m2d2):
        u = np.diag([1.0, -1.0]).astype(complex)
        K0 = fixed_point_ideal(m2d2, u)
        assert K0.dim == m2d2.D.dim

    def test_matrix_unit_gives_zero(self, m2d2):
        assert fixed_point_ideal(m2d2, E(0, 1, 2)).dim == 0

    def test_componentwise(self):
        inc = m2_plus_c_inclusion()
        v = E(0, 1, 3) + E(2, 2, 3)
        K0 = fixed_point_ideal(inc, v)
        assert K0.dim == 1
        b = K0.basis[0]
        assert hs_norm(b / b[2, 2] - E(2, 2, 3)) < 1e-8


class TestFixedSetCheck:
    def test_three_examples_pass(self, m2d2):
        cases = [
            (m2d2, np.diag([1.0, -1.0]).astype(complex)),
            (m2d2, E(0, 1, 2)),
            (m2_plus_c_inclusion(), E(0, 1, 3) + E(2, 2, 3)),
        ]
        for inc, v in cases:
            ok, info = fixed_set_check(inc, v)
            assert ok, info

    def test_diagonal_unitary_full_support(self, m2d2):
        u = np.diag([1.0, 1j])
        ok, info = fixed_set_check(m2d2, u)
        assert ok
        assert info["support"] == info["fixed"] == [0, 1]

    def test_corrupted_k0_detected(self):
        # negative control: pretending K0 = D for the swap v makes the
        # corner support disagree with fix(beta_v) = {}
        inc = mndn_inclusion(2)
        v = E(0, 1, 2) + E(1, 0, 2)
        fixed = {i for i, j in beta(inc, v).items() if i == j}
        assert fixed == set()
        corrupted_support = {i for i in beta(inc, v)
                             if any(abs(inc.char(i, k)) > 1e-7
                                    for k in inc.D.basis)}
        assert corrupted_support != fixed


class TestModStates:
    def test_mndn_corners_scalar(self, m2d2):
        descs = mod_states(m2d2)
        assert len(descs) == 2
        for d in descs:
            assert d.algebra.dim == 1
            assert len(d.extreme_states) == 1
            assert ref_check_mod_state(d.extreme_states[0]) == []

    def test_m2c_single_big_corner(self, m2c):
        descs = mod_states(m2c)
        assert len(descs) == 1
        assert descs[0].algebra.dim == 5
        assert descs[0].extreme_states == ()

    def test_abelian_self_inclusion(self):
        D = generate_star_algebra(2, [E(0, 0, 2), E(1, 1, 2)])
        inc = make_inclusion(D, D, list(D.basis))
        descs = mod_states(inc)
        assert all(d.algebra.dim == 1 for d in descs)

    def test_check_rejects_wrong_corner(self, m2d2):
        rho = canonical_corner_state(m2d2, 0)
        bad = type(rho)(inclusion=m2d2, corner_index=1, values=rho.values)
        assert ref_check_mod_state(bad)


class TestCompatibility:
    def test_m2c_lambda_state_compatible(self, m2c):
        rho = mod_state_from_density(m2c, 0, np.diag([0, 0, 1.0]))
        assert ref_check_mod_state(rho) == []
        ok, _ = is_compatible_state(m2c, rho)
        assert ok

    def test_m2c_half_trace_incompatible(self, m2c):
        rho = mod_state_from_density(m2c, 0, np.diag([0.5, 0.5, 0]))
        assert ref_check_mod_state(rho) == []
        ok, witness = is_compatible_state(m2c, rho)
        assert not ok
        lhs = abs(rho(witness)) ** 2
        rhs = rho(witness.conj().T @ witness).real
        assert lhs > 1e-7 and abs(lhs - rhs) > 1e-7

    def test_mndn_expectation_states_compatible(self, m3d3):
        for i in range(3):
            ok, _ = is_compatible_state(m3d3, canonical_corner_state(m3d3, i))
            assert ok


class TestPseudoExpectations:
    def test_mndn_unique_faithful(self, m3d3):
        pe = pseudo_expectations(m3d3)
        assert pe.unique and pe.faithful
        rng = np.random.default_rng(12)
        x = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        assert np.max(np.abs(pe.expectation.apply(x) - np.diag(np.diag(x)))) \
            < 1e-10

    def test_m2c_non_unique(self, m2c):
        pe = pseudo_expectations(m2c)
        assert not pe.unique
        assert pe.expectation is None

    def test_abelian_identity(self):
        D = generate_star_algebra(2, [E(0, 0, 2), E(1, 1, 2)])
        inc = make_inclusion(D, D, list(D.basis))
        pe = pseudo_expectations(inc)
        assert pe.unique and pe.faithful
        for d in D.basis:
            assert hs_norm(pe.expectation.apply(d) - d) < 1e-10

    def test_masa_inclusion_expectation_formula(self):
        rng = np.random.default_rng(13)
        for n in (2, 3, 4):
            g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            u, _ = np.linalg.qr(g)
            gens = [u @ E(i, j, n) @ u.conj().T
                    for i in range(n) for j in range(n)]
            C = generate_star_algebra(n, gens)
            D = generate_star_algebra(
                n, [u @ E(i, i, n) @ u.conj().T for i in range(n)])
            inc = make_inclusion(C, D, gens)
            pe = pseudo_expectations(inc)
            assert pe.unique and pe.faithful
            x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            want = sum(p @ x @ p for p in inc.min_projs)
            assert np.max(np.abs(pe.expectation.apply(x) - want)) < 1e-10


class TestLeftKernel:
    def test_mndn_zero(self, m3d3):
        E3 = canonical_expectation(m3d3)
        assert left_kernel(m3d3, E3).dim == 0

    def test_abelian_zero(self):
        D = generate_star_algebra(2, [E(0, 0, 2), E(1, 1, 2)])
        inc = make_inclusion(D, D, list(D.basis))
        assert left_kernel(inc, canonical_expectation(inc)).dim == 0

    def test_complementary_central_summand(self):
        inc = central_summand_inclusion()
        i1 = corner_of(inc, E(1, 1, 3) + E(2, 2, 3))
        dens = list(p / np.trace(p) for p in inc.min_projs)
        dens[i1] = E(1, 1, 3).astype(complex)  # kill the e33 coordinate
        Ek = PseudoExpectation(inclusion=inc, corner_densities=tuple(dens))
        L = left_kernel(inc, Ek)
        assert L.dim == 1
        b = L.basis[0]
        assert hs_norm(b / b[2, 2] - E(2, 2, 3)) < 1e-8

    def test_requires_regular(self):
        """M_3 over span{e11 + e22, e33}; the refusal names the slice."""
        inc = unequal_rank_inclusion()
        with pytest.raises(NotRegular) as err:
            left_kernel(inc, canonical_expectation(inc))
        assert str(err.value) == ("left kernel requires a regular "
                                  "inclusion" + UNEQUAL_RANK_WITNESS)
        assert err.value.witness == (0, 1, 2, 1, 4, 1, 2)


class TestRadicalIdeal:
    def test_full_mod_set_gives_zero(self, m2d2):
        F = [canonical_corner_state(m2d2, i) for i in range(2)]
        assert radical_ideal(m2d2, F).dim == 0

    def test_empty_f_gives_everything(self, m2d2):
        assert radical_ideal(m2d2, []).dim == m2d2.C.dim

    def test_invariance_enforced(self, m2d2):
        with pytest.raises(NotInvariant):
            radical_ideal(m2d2, [canonical_corner_state(m2d2, 0)])

    def test_kf_meets_d_trivially(self, m3d3):
        F = [canonical_corner_state(m3d3, i) for i in range(3)]
        K = radical_ideal(m3d3, F)
        assert K.dim == 0


class TestStronglyCompatible:
    def test_mndn(self, m3d3):
        S = strongly_compatible(m3d3)
        assert len(S) == 3
        assert sorted(s.corner_index for s in S) == [0, 1, 2]
        for s in S:
            assert ref_check_mod_state(s) == []
            ok, _ = is_compatible_state(m3d3, s)
            assert ok

    def test_m2c_raises(self, m2c):
        with pytest.raises(NonUniquePseudoExpectation):
            strongly_compatible(m2c)

    def test_abelian_gives_characters(self):
        D = generate_star_algebra(2, [E(0, 0, 2), E(1, 1, 2)])
        inc = make_inclusion(D, D, list(D.basis))
        S = strongly_compatible(inc)
        for s in S:
            p = inc.min_projs[s.corner_index]
            assert abs(s(p) - 1.0) < 1e-10


class TestExpectationLaws:
    def test_prop_eninv(self, m3d3):
        Em = canonical_expectation(m3d3)
        for v in m3d3.normalizer_gens:
            th = theta(m3d3, v)
            vv = v @ v.conj().T
            for x in m3d3.C.basis:
                lhs = Em.apply(v.conj().T @ x @ v)
                rhs = th.apply(Em.apply(vv @ x))
                assert np.max(np.abs(lhs - rhs)) < 1e-9

    def test_vstar_ev_in_commutant(self, m3d3):
        Em = canonical_expectation(m3d3)
        for v in m3d3.normalizer_gens:
            assert m3d3.commutant_of_D.contains(
                v.conj().T @ Em.apply(v), 1e-8)

    def test_transport_stays_in_invariant_family(self, m3d3):
        F = [canonical_corner_state(m3d3, i) for i in range(3)]
        for rho in F:
            for v in m3d3.normalizer_gens:
                if rho(v.conj().T @ v).real <= 1e-9:
                    continue
                moved = ref_transported(m3d3, rho, v)
                assert any(moved.close_to(s) for s in F)

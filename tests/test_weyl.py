import numpy as np
import pytest

from cartankit.errors import (
    InvalidMode,
    NoConditionalExpectation,
    NotInDomain,
    NotRegular,
)
from cartankit.groupoid import (
    disjoint_union,
    find_isomorphism,
    pair_groupoid,
)
from cartankit.inclusion import make_inclusion
from cartankit.matalg import block_structure, generate_star_algebra, hs_norm
from cartankit.reduced import groupoid_inclusion, realize
from cartankit.twist import trivial_twist, validate_cocycle
from cartankit.weyl import (
    canonical_phase,
    germ_equal,
    germ_expectation_criterion,
    weyl_twist,
)
from conftest import UNEQUAL_RANK_WITNESS, E, mndn_inclusion, \
    random_coboundary, unequal_rank_inclusion


def corner_of(inc, p):
    return min(range(inc.n_corners),
               key=lambda i: hs_norm(inc.min_projs[i] - p))


class TestGermEqual:
    def test_reflexive(self, m2d2):
        v = E(0, 1, 2)
        i = corner_of(m2d2, E(1, 1, 2))
        assert germ_equal(m2d2, v, v, i, mode="R1")
        assert germ_equal(m2d2, v, v, i, mode="RT")

    def test_phase_distinguishes_modes(self, m2d2):
        v = E(0, 1, 2)
        w = 1j * v
        i = corner_of(m2d2, E(1, 1, 2))
        assert germ_equal(m2d2, v, w, i, mode="RT")
        assert not germ_equal(m2d2, v, w, i, mode="R1")

    def test_different_targets(self, m2d2):
        i = corner_of(m2d2, E(1, 1, 2))
        assert not germ_equal(m2d2, E(0, 1, 2), E(1, 0, 2), i)

    def test_both_outside_domain(self, m2d2):
        i = corner_of(m2d2, E(0, 0, 2))
        with pytest.raises(NotInDomain):
            germ_equal(m2d2, E(0, 1, 2), E(0, 1, 2), i)

    def test_unknown_mode_refused(self, m2d2):
        """An unknown mode is refused before the germs are compared, also
        where they differ."""
        i = corner_of(m2d2, E(1, 1, 2))
        for v, w in ((E(0, 1, 2), E(0, 1, 2)), (E(0, 1, 2), E(1, 0, 2))):
            with pytest.raises(InvalidMode, match="unknown germ mode 'R2'"):
                germ_equal(m2d2, v, w, i, mode="R2")

    def test_positive_scaling_keeps_r1(self, m2d2):
        v = E(0, 1, 2)
        i = corner_of(m2d2, E(1, 1, 2))
        assert germ_equal(m2d2, v, 2.5 * v, i, mode="R1")


class TestCanonicalPhase:
    def test_rotates_first_entry(self):
        u = canonical_phase(1j * E(0, 1, 2))
        assert abs(u[0, 1] - 1.0) < 1e-12

    def test_idempotent(self):
        rng = np.random.default_rng(0)
        m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        once = canonical_phase(m)
        assert np.allclose(canonical_phase(once), once)


class TestExpectationCriterion:
    def test_same_germ(self, m2d2):
        v = E(0, 1, 2)
        i = corner_of(m2d2, E(1, 1, 2))
        assert germ_expectation_criterion(m2d2, v, v, i)

    def test_different_germ(self, m2d2):
        i = corner_of(m2d2, E(1, 1, 2))
        assert not germ_expectation_criterion(m2d2, E(0, 1, 2), E(1, 0, 2), i)

    def test_d_unitary_twist(self, m2d2):
        v = E(0, 1, 2)
        w = v @ np.diag([1.0, np.exp(0.7j)])
        i = corner_of(m2d2, E(1, 1, 2))
        assert germ_expectation_criterion(m2d2, v, w, i)

    def test_non_masa_refused(self, m2c):
        with pytest.raises(NoConditionalExpectation):
            germ_expectation_criterion(m2c, np.eye(3, dtype=complex),
                                       np.eye(3, dtype=complex), 0)

    def test_agrees_with_rt(self, m3d3):
        gens = [E(0, 1, 3), E(1, 2, 3), E(0, 2, 3),
                1j * E(0, 1, 3), E(0, 1, 3) + E(1, 0, 3)]
        for v in gens:
            for w in gens:
                for i in range(3):
                    pv = hs_norm(v @ m3d3.min_projs[i]) > 1e-8
                    pw = hs_norm(w @ m3d3.min_projs[i]) > 1e-8
                    if not (pv and pw):
                        continue
                    assert germ_equal(m3d3, v, w, i, mode="RT") == \
                        germ_expectation_criterion(m3d3, v, w, i)


class TestGermProduct:
    def test_well_defined(self, m3d3):
        v, vp = E(0, 1, 3), np.exp(0.3j) * E(0, 1, 3)
        w, wp = E(1, 2, 3), 3.0j * E(1, 2, 3)
        i = corner_of(m3d3, E(2, 2, 3))
        j = corner_of(m3d3, E(1, 1, 3))
        assert germ_equal(m3d3, v, vp, j, mode="RT")
        assert germ_equal(m3d3, w, wp, i, mode="RT")
        assert germ_equal(m3d3, v @ w, vp @ wp, i, mode="RT")


class TestWeylTwist:
    def test_mndn_gives_pair_groupoid(self):
        for n in (2, 3):
            W = weyl_twist(mndn_inclusion(n))
            G = W.twist.groupoid
            assert len(G.units) == n
            assert len(G.arrows) == n * n
            assert find_isomorphism(G, pair_groupoid(n)) is not None
            assert validate_cocycle(W.twist) == []
            assert all(abs(z - 1.0) < 1e-9 for z in W.twist.sigma.values())

    def test_self_inclusion_units_only(self):
        D = generate_star_algebra(3, [E(i, i, 3) for i in range(3)])
        inc = make_inclusion(D, D, list(D.basis))
        W = weyl_twist(inc)
        G = W.twist.groupoid
        assert len(G.units) == 3
        assert len(G.arrows) == 3

    def test_representatives_are_partial_isometries(self, m3d3):
        W = weyl_twist(m3d3)
        for a, u in W.representatives.items():
            assert np.allclose(u @ u.conj().T @ u, u, atol=1e-9)

    def test_non_regular_refused(self):
        """M_3 over span{e11 + e22, e33}; the refusal names the slice."""
        with pytest.raises(NotRegular) as err:
            weyl_twist(unequal_rank_inclusion())
        assert str(err.value) == ("Weyl twist requires a regular "
                                  "inclusion" + UNEQUAL_RANK_WITNESS)
        assert err.value.witness == (0, 1, 2, 1, 4, 1, 2)

    def test_non_masa_refused(self, m2c):
        with pytest.raises(NoConditionalExpectation):
            weyl_twist(m2c)


class TestRoundTrip:
    def round_trip(self, T):
        R = realize(T)
        W = weyl_twist(groupoid_inclusion(R))
        assert validate_cocycle(W.twist) == []
        assert find_isomorphism(W.twist.groupoid, T.groupoid) is not None
        assert block_structure(realize(W.twist).algebra) == \
            block_structure(R.algebra)

    def test_pair2_trivial(self, pair2_twist):
        self.round_trip(pair2_twist)

    def test_pair3_coboundary(self):
        rng = np.random.default_rng(7)
        self.round_trip(random_coboundary(pair_groupoid(3), rng))

    def test_disjoint_union_of_pairs(self):
        rng = np.random.default_rng(8)
        G = disjoint_union(pair_groupoid(2), pair_groupoid(2))
        self.round_trip(random_coboundary(G, rng))

    def test_singleton(self):
        self.round_trip(trivial_twist(pair_groupoid(1)))

import numpy as np
import pytest

import cartankit.groupoid
from cartankit.errors import (
    IsomorphismUndecided,
    NotASubgroupoid,
    UnknownArrow,
    UnknownUnit,
)
from cartankit.groupoid import (
    build_groupoid,
    cyclic_groupoid,
    disjoint_union,
    find_isomorphism,
    has_factorization_property,
    invariant_signature,
    is_bisection,
    is_subgroupoid,
    isotropy,
    klein_four_groupoid,
    pair_groupoid,
    restrict_groupoid,
    validate,
)


class TestValidate:
    def test_pair2_valid(self, pair2):
        assert validate(pair2) == []

    def test_k4_valid(self, k4):
        assert validate(k4) == []

    def test_corrupted_inverse_reported(self, pair2):
        bad_inv = dict(pair2.inv)
        a = pair2.arrows[1]
        bad_inv[a] = a if pair2.inv[a] != a else pair2.arrows[2]
        G = type(pair2)(units=pair2.units, arrows=pair2.arrows,
                        src=pair2.src, rng=pair2.rng, inv=bad_inv,
                        compose_table=pair2.compose_table,
                        unit_arrow=pair2.unit_arrow)
        report = validate(G)
        assert report
        assert any(repr(a) in line for line in report)


class TestIsotropy:
    def test_pair_groupoid_trivial(self, pair2):
        x = pair2.units[0]
        assert isotropy(pair2, x) == (pair2.unit_arrow[x],)

    def test_group_is_all_arrows(self, k4):
        assert set(isotropy(k4, k4.units[0])) == set(k4.arrows)

    def test_disjoint_union(self, pair2, k4):
        U = disjoint_union(pair2, k4)
        pair_unit = "A." + pair2.units[0]
        assert len(isotropy(U, pair_unit)) == 1

    def test_unknown_unit(self, pair2):
        with pytest.raises(UnknownUnit):
            isotropy(pair2, "nope")

    def test_isotropy_is_a_group(self):
        for G in (pair_groupoid(3), klein_four_groupoid(),
                  disjoint_union(pair_groupoid(2), cyclic_groupoid(3))):
            for x in G.units:
                H = isotropy(G, x)
                assert G.unit_arrow[x] in H
                for a in H:
                    assert G.inv[a] in H
                    for b in H:
                        assert G.compose(a, b) in H


class TestBisection:
    def test_singletons(self, pair2):
        for a in pair2.arrows:
            assert is_bisection(pair2, [a])

    def test_full_pair2_not_bisection(self, pair2):
        assert not is_bisection(pair2, pair2.arrows)

    def test_unit_space_is_bisection(self, pair2):
        assert is_bisection(pair2, pair2.unit_arrow.values())

    def test_unknown_arrow(self, pair2):
        with pytest.raises(UnknownArrow):
            is_bisection(pair2, ["nope"])


class TestFactorization:
    def test_whole_groupoid(self, pair2):
        assert has_factorization_property(pair2, pair2.arrows)

    def test_units_of_pair2_fail(self, pair2):
        H = list(pair2.unit_arrow.values())
        assert is_subgroupoid(pair2, H)
        assert not has_factorization_property(pair2, H)

    def test_component_passes(self, pair2, k4):
        U = disjoint_union(pair2, k4)
        H = [a for a in U.arrows if a.startswith("B.")]
        assert has_factorization_property(U, H)

    def test_rejects_non_subgroupoid(self, pair2):
        non_unit = [a for a in pair2.arrows
                    if pair2.src[a] != pair2.rng[a]][0]
        with pytest.raises(NotASubgroupoid):
            has_factorization_property(pair2, [non_unit])

    def test_restrict_groupoid_valid(self, pair2, k4):
        U = disjoint_union(pair2, k4)
        H = [a for a in U.arrows if a.startswith("B.")]
        G = restrict_groupoid(U, H)
        assert validate(G) == []
        assert find_isomorphism(G, k4) is not None


class TestIsomorphism:
    def test_pair2_self(self):
        assert find_isomorphism(pair_groupoid(2),
                                pair_groupoid(2, prefix="v")) is not None

    def test_pair2_vs_k4(self, pair2, k4):
        assert find_isomorphism(pair2, k4) is None

    def test_k4_vs_z4(self, k4):
        assert find_isomorphism(k4, cyclic_groupoid(4)) is None

    def test_signature_distinguishes(self, pair2, k4):
        assert invariant_signature(pair2) != invariant_signature(k4)

    def test_past_the_search_a_signature_is_no_proof(self, monkeypatch):
        """Above the search's arrow count a signature mismatch is None,
        equal tables are the identity, and anything else is undecided."""
        G = cyclic_groupoid(16)
        H = disjoint_union(cyclic_groupoid(8), cyclic_groupoid(8))
        assert invariant_signature(G) != invariant_signature(H)
        assert find_isomorphism(G, H) is None
        with pytest.raises(IsomorphismUndecided):
            find_isomorphism(G, cyclic_groupoid(16, prefix="d"))
        assert find_isomorphism(G, cyclic_groupoid(16)) == {
            a: a for a in G.arrows}
        monkeypatch.setattr(cartankit.groupoid, "ISOMORPHISM_SEARCH_ARROWS",
                            3)
        with pytest.raises(IsomorphismUndecided):
            find_isomorphism(pair_groupoid(2), pair_groupoid(2, prefix="v"))

    def test_isomorphism_respects_structure(self, k4):
        other = klein_four_groupoid(unit="u", prefix="m")
        iso = find_isomorphism(k4, other)
        assert iso is not None
        for (a, b), ab in k4.compose_table.items():
            assert other.compose(iso[a], iso[b]) == iso[ab]


def test_random_small_groupoids_validate():
    rng = np.random.default_rng(3)
    for _ in range(20):
        G = disjoint_union(pair_groupoid(int(rng.integers(1, 4))),
                           cyclic_groupoid(int(rng.integers(2, 5))))
        assert len(G.arrows) <= 24
        assert validate(G) == []
        for a in G.arrows:
            assert is_bisection(G, [a])

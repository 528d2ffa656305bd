"""Corner slices as the exact normalizer classes of scalar-corner
inclusions, cross-checked against the bounded word search they replace
in the Weyl and envelope pipelines."""

import numpy as np
import pytest

import cartankit.envelope
import cartankit.groupoid
import cartankit.inclusion
import cartankit.weyl
from cartankit.envelope import (
    build_cover,
    cartan_envelope,
    envelope_uniqueness_crosscheck,
)
from cartankit.errors import NumericalRankAmbiguity
from cartankit.groupoid import build_groupoid
from cartankit.inclusion import (
    WORD_BOUND,
    beta,
    mod_state_from_density,
    normalizer_words,
)
from cartankit.matalg import hs_inner, hs_norm
from cartankit.reduced import groupoid_inclusion, is_cartan_pair, realize
from cartankit.twist import CocycleTwist
from cartankit.weyl import WeylTwistResult, weyl_twist
from conftest import mndn_inclusion, random_twist_corpus
from test_envelope import diagonal_scalar_inclusion, k4_cartan_inclusion


def corpus_inclusions():
    """The realized twists of a small corpus (4 and 9 arrows among the
    Cartan members), with their Cartan verdicts."""
    out = []
    for T in random_twist_corpus(12, seed=2):
        R = realize(T)
        out.append((groupoid_inclusion(R), is_cartan_pair(R).is_cartan))
    return out


def scalar_corner_fixtures():
    out = [mndn_inclusion(n) for n in (2, 3, 4)]
    out.append(k4_cartan_inclusion())
    out.extend(inc for inc, cartan in corpus_inclusions() if cartan)
    return out


def word_classes(inc):
    """Germ classes by the bounded word search: (i, beta_v(i)) -> every
    normalized slice v p_i / sigma_i(v*v)^{1/2} met among the words."""
    out = {}
    for v in normalizer_words(inc, WORD_BOUND):
        for i, j in beta(inc, v).items():
            wt = inc.char(i, v.conj().T @ v).real
            out.setdefault((i, j), []).append(
                v @ inc.min_projs[i] / np.sqrt(wt))
    return out


class TestCornerSlices:
    def test_partial_isometries(self):
        for inc in (mndn_inclusion(3), k4_cartan_inclusion()):
            P = inc.min_projs
            slices = inc.corner_slices
            for (i, j), u in slices.items():
                assert np.allclose(u.conj().T @ u, P[i], atol=1e-10)
                assert np.allclose(u @ u.conj().T, P[j], atol=1e-10)
                assert hs_norm(P[j] @ u @ P[i] - u) < 1e-10
        m = mndn_inclusion(3)
        assert sorted(m.corner_slices) == [(i, j) for i in range(3)
                                           for j in range(3)]

    def test_equal_word_search_classes(self):
        fixtures = scalar_corner_fixtures()
        assert len(fixtures) == 6
        for inc in fixtures:
            slices = inc.corner_slices
            words = word_classes(inc)
            assert sorted(words) == sorted(slices)
            for key, us in words.items():
                s = slices[key]
                for u in us:
                    lam = hs_inner(u, s) / hs_norm(s) ** 2
                    assert abs(abs(lam) - 1.0) < 1e-9
                    assert hs_norm(u - lam * s) < 1e-9

    def test_none_for_non_scalar_corners(self, m2c):
        assert m2c.corner_slices is None
        assert diagonal_scalar_inclusion().corner_slices is None

    def test_none_exactly_off_masa_on_corpus(self):
        for inc, cartan in corpus_inclusions():
            assert (inc.corner_slices is None) == (not inc.is_masa)
            assert cartan == inc.is_masa

    def test_wide_off_diagonal_slice_is_typed_error(self, monkeypatch):
        """A rank-2 off-diagonal slice under scalar corners cannot occur in
        exact arithmetic; the forced branch raises, never asserts."""
        real = cartankit.inclusion.row_span

        def widened(rows):
            out = real(rows)
            n = int(round(np.sqrt(out.shape[1])))
            # off-diagonal slices p_j C p_i (i != j) are trace-free
            if out.shape[0] == 1 and \
                    abs(np.trace(out[0].reshape(n, n))) < 1e-9:
                extra = np.zeros_like(out)
                extra[0, np.argmin(np.abs(out[0]))] = 1.0
                out = np.vstack([out, extra])
            return out

        monkeypatch.setattr(cartankit.inclusion, "row_span", widened)
        with pytest.raises(NumericalRankAmbiguity):
            mndn_inclusion(2).corner_slices


class WordSearchUsed(Exception):
    pass


class TestNoWordSearch:
    @pytest.fixture
    def no_words(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise WordSearchUsed

        monkeypatch.setattr(cartankit.inclusion, "normalizer_words", refuse)

    def test_weyl_mndn6_exact(self, no_words):
        W = weyl_twist(mndn_inclusion(6))
        assert len(W.twist.groupoid.units) == 6
        assert len(W.twist.groupoid.arrows) == 36

    def test_envelope_and_crosscheck(self, no_words):
        assert cartan_envelope(mndn_inclusion(4)).success
        assert cartan_envelope(k4_cartan_inclusion()).success
        assert envelope_uniqueness_crosscheck(mndn_inclusion(3))

    def test_non_scalar_corners_keep_word_path(self, no_words, m2c):
        rho = mod_state_from_density(m2c, 0, np.diag([0, 0, 1.0]))
        with pytest.raises(WordSearchUsed):
            build_cover(m2c, "custom", F=[rho])


def _relabelled(W: WeylTwistResult, swap: dict) -> WeylTwistResult:
    """The same twist with arrow names exchanged by ``swap``."""
    G = W.twist.groupoid
    name = {a: swap.get(a, a) for a in G.arrows}
    specs = [(name[a], G.src[a], G.rng[a], name[G.inv[a]]) for a in G.arrows]
    pairs = [(name[a], name[b], name[ab])
             for (a, b), ab in G.compose_table.items()]
    H = build_groupoid(list(G.units), specs, pairs,
                       {x: name[e] for x, e in G.unit_arrow.items()})
    sigma = {(name[a], name[b]): z for (a, b), z in W.twist.sigma.items()}
    return WeylTwistResult(twist=CocycleTwist(H, sigma),
                           representatives=W.representatives,
                           corner_of_unit=W.corner_of_unit)


class TestCrosscheckIsomorphism:
    @pytest.fixture
    def no_signature_match(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("find_isomorphism called")

        for mod in (cartankit.groupoid, cartankit.envelope):
            monkeypatch.setattr(mod, "find_isomorphism", refuse,
                                raising=False)

    def test_mndn_verified_by_corner_pairs(self, no_signature_match):
        for n in (4, 5):
            assert envelope_uniqueness_crosscheck(mndn_inclusion(n))

    def test_mislabelled_weyl_twist_refused(self, monkeypatch):
        real = cartankit.weyl.weyl_twist
        monkeypatch.setattr(
            cartankit.weyl, "weyl_twist",
            lambda inc: _relabelled(real(inc), {"g0.1": "g1.0",
                                                "g1.0": "g0.1"}))
        assert not envelope_uniqueness_crosscheck(mndn_inclusion(3))

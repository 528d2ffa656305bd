"""Corner slices as the exact normalizer classes of scalar-corner
inclusions, cross-checked against the bounded word search they replace
in the Weyl and envelope pipelines (kept here as ``ref_normalizer_words``)."""

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
from cartankit.errors import NoConditionalExpectation, NumericalRankAmbiguity
from cartankit.groupoid import build_groupoid
from cartankit.inclusion import (
    Inclusion,
    beta,
    make_inclusion,
    mod_state_from_density,
)
from cartankit.matalg import (
    _algebra_from_rows,
    _vec,
    generate_star_algebra,
    hs_inner,
    hs_norm,
    relative_commutant,
    row_span,
)
from cartankit.reduced import groupoid_inclusion, is_cartan_pair, realize
from cartankit.twist import CocycleTwist
from cartankit.weyl import WeylTwistResult, weyl_twist
from conftest import E, m2c_inclusion, mndn_inclusion, random_twist_corpus, \
    subspace_equals
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


#: Word-length bound and cap of the reference word search.
WORD_BOUND = 4
WORD_CAP = 4000


def ref_normalizer_words(inc, word_bound=WORD_BOUND, include_d=True,
                         cap=WORD_CAP):
    """The bounded word search the exact corner tests replaced:
    deduplicated *-semigroup words up to ``word_bound`` letters in the
    normalizer generators, their adjoints and (with ``include_d``) D's
    minimal projections, its unit and a fixed generic unitary of D, at most
    ``cap`` of them, in a deterministic order."""
    alphabet = []
    for v in inc.normalizer_gens:
        alphabet += [v, v.conj().T]
    if include_d:
        alphabet += list(inc.min_projs) + [np.asarray(inc.D.unit,
                                                      dtype=complex)]
        phases = np.exp(2j * np.pi * np.random.default_rng(0xC0C0).random(
            inc.n_corners))
        alphabet.append(sum(z * p for z, p in zip(phases, inc.min_projs)))

    def key(m):
        return tuple(np.round(m.ravel(), 8).tobytes()
                     for m in (m.real, m.imag))

    seen, frontier = {}, []
    for m in alphabet:
        if seen.setdefault(key(m), m) is m:
            frontier.append(m)
    for _ in range(word_bound - 1):
        new = []
        for w in frontier:
            for a in alphabet:
                m = w @ a
                if seen.setdefault(key(m), m) is m:
                    new.append(m)
                if len(seen) >= cap:
                    break
            if len(seen) >= cap:
                break
        frontier = new
        if not frontier or len(seen) >= cap:
            break
    return list(seen.values())


def word_classes(inc):
    """Germ classes by the bounded word search: (i, beta_v(i)) -> every
    normalized slice v p_i / sigma_i(v*v)^{1/2} met among the words."""
    out = {}
    for v in ref_normalizer_words(inc):
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
        real = cartankit.inclusion.Inclusion.__dict__["_slice_spans"].func

        def widened(self):
            # every off-diagonal slice p_j C p_i (i != j) spans two rows
            return {(i, j): rows if i == j else np.vstack([rows, rows])
                    for (i, j), rows in real(self).items()}

        monkeypatch.setattr(cartankit.inclusion.Inclusion, "_slice_spans",
                            property(widened))
        with pytest.raises(NumericalRankAmbiguity):
            mndn_inclusion(2).corner_slices


#: The names of the retired word search.
WORD_SEARCH = ("normalizer_words", "WORD_BOUND", "WORD_CAP", "_WORD_SEED",
               "_normalizer_reps")


class TestNoWordSearch:
    @pytest.fixture
    def no_words(self):
        for mod in (cartankit.inclusion, cartankit.envelope, cartankit.weyl):
            for name in WORD_SEARCH:
                assert not hasattr(mod, name), (mod.__name__, name)

    def test_weyl_mndn6_exact(self, no_words):
        W = weyl_twist(mndn_inclusion(6))
        assert len(W.twist.groupoid.units) == 6
        assert len(W.twist.groupoid.arrows) == 36

    def test_envelope_and_crosscheck(self, no_words):
        assert cartan_envelope(mndn_inclusion(4)).success
        assert cartan_envelope(k4_cartan_inclusion()).success
        assert envelope_uniqueness_crosscheck(mndn_inclusion(3))

    def test_m2c_custom_cover_without_word_search(self, no_words, m2c,
                                                  monkeypatch):
        """m2c has one (non-scalar) corner: the cover is checked on its
        corner algebra and transported by u = p_0 = 1 alone, in the one
        transport contraction of ``_is_invariant``."""
        moved = []
        real = cartankit.inclusion._transports

        def counted(W, V):
            moved.append(V)
            return real(W, V)

        monkeypatch.setattr(cartankit.inclusion, "_transports", counted)
        rho = mod_state_from_density(m2c, 0, np.diag([0, 0, 1.0]))
        assert build_cover(m2c, "custom", F=[rho]).certified
        assert len(moved) == 1 and moved[0].shape == (1, 3, 3)
        assert hs_norm(moved[0][0] - np.eye(3)) < 1e-12


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


# --- the corner-block kernel against the full-width path -----------------

def reference_slices(inc):
    """``Inclusion.corner_slices`` on full-width rows: one ``row_span`` of
    p_j B p_i (d x n^2) per corner pair."""
    n, B, P = inc.C.ambient_dim, inc.C.stack, inc.min_projs
    spans = {(i, j): row_span(_vec(pj @ B @ pi))
             for i, pi in enumerate(P) for j, pj in enumerate(P)}
    if any(spans[(i, i)].shape[0] > 1 for i in range(len(P))):
        return None
    assert all(rows.shape[0] <= 1 for rows in spans.values())
    return {(i, j): rows[0].reshape(n, n) * np.sqrt(np.trace(P[i]).real)
            for (i, j), rows in spans.items() if rows.shape[0]}


def reference_corner(inc, i):
    """p_i C p_i from the full-width rows ``row_span(p S p)``."""
    p = inc.min_projs[i]
    return _algebra_from_rows(inc.C.ambient_dim,
                              row_span(_vec(p @ inc.C.stack @ p)), p)


def reference_weyl_sigma(inc):
    """The Weyl cocycle one composable key pair at a time, from the
    reference slices."""
    classes = {key: cartankit.weyl.canonical_phase(u)
               for key, u in reference_slices(inc).items()}
    sigma = {}
    for (i1, j1), u in classes.items():
        for (i2, j2), w in classes.items():
            if i1 == j2:
                lam = cartankit.weyl._ratio(u @ w, classes[(i2, j1)])
                sigma[(f"g{i1}.{j1}", f"g{i2}.{j2}")] = lam / abs(lam)
    return sigma


def tensor_inclusion(k):
    """M_2 (x) 1_k over D_2 (x) 1_k: scalar corners on rank-k projections."""
    one = np.eye(k)
    units = [np.kron(E(i, j, 2), one) for i in range(2) for j in range(2)]
    C = generate_star_algebra(2 * k, units)
    D = generate_star_algebra(2 * k, [units[0], units[3]])
    return make_inclusion(C, D, units)


def mixed_rank_inclusion():
    """(M_2 (x) 1_2) + C over (D_2 (x) 1_2) + C in M_5: ranks 2, 2, 1, so
    the slices fall into several block shapes."""
    def pad(m, z):
        out = np.zeros((5, 5), dtype=complex)
        out[:4, :4] = m
        out[4, 4] = z
        return out

    units = [pad(np.kron(E(i, j, 2), np.eye(2)), 0) for i in range(2)
             for j in range(2)]
    e = pad(np.zeros((4, 4)), 1)
    C = generate_star_algebra(5, units + [e])
    D = generate_star_algebra(5, [units[0], units[3], e])
    return make_inclusion(C, D, units + [e])


def non_scalar_rank_two():
    """M_2 (x) M_2 over D_2 (x) 1_2: corners M_2 on rank-2 projections."""
    paulis = [np.eye(2), np.array([[0, 1], [1, 0]]), np.diag([1, -1]),
              np.array([[0, -1j], [1j, 0]])]
    gens = [np.kron(E(i, j, 2), u) for i in range(2) for j in range(2)
            for u in paulis]
    C = generate_star_algebra(4, gens)
    D = generate_star_algebra(4, [np.kron(E(0, 0, 2), np.eye(2)),
                                  np.kron(E(1, 1, 2), np.eye(2))])
    return make_inclusion(C, D, gens)


def kernel_fixtures():
    out = [mndn_inclusion(n) for n in range(2, 9)]
    out += [k4_cartan_inclusion(), tensor_inclusion(2), tensor_inclusion(3),
            mixed_rank_inclusion()]
    corpus = corpus_inclusions()
    out += [inc for inc, cartan in corpus if cartan]
    out += [m2c_inclusion(), diagonal_scalar_inclusion(),
            non_scalar_rank_two()]
    out += [inc for inc, cartan in corpus if not cartan]
    return out


@pytest.fixture(scope="module")
def fixtures():
    return kernel_fixtures()


class TestCornerBlockKernel:
    def test_fixture_coverage(self, fixtures):
        ranks = [tuple(int(np.trace(p).real) for p in inc.min_projs)
                 for inc in fixtures]
        assert any(max(r) >= 2 and inc.scalar_corners
                   for r, inc in zip(ranks, fixtures))
        assert any(len(set(r)) > 1 for r in ranks)
        assert sum(inc.corner_slices is None for inc in fixtures) >= 4

    def test_slices_match_full_width(self, fixtures):
        for inc in fixtures:
            want, got = reference_slices(inc), inc.corner_slices
            assert (want is None) == (got is None)
            if want is None:
                continue
            assert list(got) == list(want)
            for key, u in got.items():
                lam = hs_inner(u, want[key]) / hs_norm(want[key]) ** 2
                assert abs(abs(lam) - 1.0) < 1e-10
                assert hs_norm(u - lam * want[key]) < 1e-10

    def test_corners_and_commutant_match_full_width(self, fixtures):
        for inc in fixtures:
            for i, A in enumerate(inc.corner_algebras):
                ref = reference_corner(inc, i)
                assert subspace_equals(A, ref, 1e-9)
                assert np.allclose(A.unit, ref.unit, atol=1e-12)
            ref = relative_commutant(inc.D, inc.C)
            assert subspace_equals(inc.commutant_of_D, ref, 1e-9)
            assert inc.is_masa == subspace_equals(ref, inc.D, 1e-7)
            assert inc.is_masa == (reference_slices(inc) is not None)

    def test_weyl_cocycle_matches_pairwise(self, fixtures):
        for inc in fixtures:
            if not (inc.is_masa and inc.regular):
                continue
            sigma = weyl_twist(inc).twist.sigma
            want = reference_weyl_sigma(inc)
            assert sorted(sigma) == sorted(want)
            assert max(abs(sigma[k] - want[k]) for k in want) < 1e-12

    def test_stacked_row_span_cuts_each_matrix(self):
        rng = np.random.default_rng(7)
        mats = rng.standard_normal((6, 5, 4)) + \
            1j * rng.standard_normal((6, 5, 4))
        mats[1, :, 2:] = 0                       # rank 2
        mats[2] = np.outer(mats[2, :, 0], mats[2, 0])   # rank 1
        mats[3] = 0                              # rank 0
        mats[4, :, 3] = mats[4, :, 0] * (1 + 1e-9)       # cut by RANK_TOL
        stacked = row_span(mats)
        assert [len(rows) for rows in stacked] == [4, 2, 1, 0, 3, 4]
        for rows, m in zip(stacked, mats):
            one = row_span(m)
            assert rows.shape == one.shape
            assert np.allclose(rows.conj().T @ rows, one.conj().T @ one,
                               atol=1e-10)
        assert row_span(np.zeros((0, 3, 2))) == ()

    def test_non_proportional_weyl_product_is_typed_error(self, monkeypatch):
        """Germ products of a MASA are proportional to germs in exact
        arithmetic; a tampered class forces the branch, which raises."""
        keys, X = tensor_inclusion(2)._slice_blocks
        X = X.copy()
        X[keys.index((0, 1))] = X[keys.index((0, 1))] @ np.diag([1.0, -1.0])
        monkeypatch.setattr(Inclusion, "_slice_blocks",
                            property(lambda self: (keys, X)))
        with pytest.raises(NoConditionalExpectation):
            weyl_twist(tensor_inclusion(2))

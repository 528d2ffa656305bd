"""Exact compatibility and invariance of corner states, read from the
corner algebras A_i = p_i C p_i, cross-checked against the bounded word
search they replaced (``ref_normalizer_words``)."""

from pathlib import Path

import numpy as np
import pytest

import cartankit.inclusion
from cartankit.envelope import build_cover
from cartankit.errors import InvarianceUndecided, NotCovering, NotInvariant
from cartankit.inclusion import (
    _is_invariant,
    _transport_reps,
    canonical_corner_state,
    is_compatible_state,
    is_normalizer,
    mod_state_from_density,
    radical_ideal,
)
from cartankit.matalg import hs_norm
from conftest import (
    m2c_inclusion,
    mndn_inclusion,
    ref_coefficient_matrix,
    unequal_rank_inclusion,
)
from test_corner_slices import (
    WORD_SEARCH,
    non_scalar_rank_two,
    ref_normalizer_words,
)
from test_envelope import diagonal_scalar_inclusion
from test_stacked_kernel import ref_check_mod_state, ref_transported

SRC = Path(__file__).resolve().parents[1] / "src" / "cartankit"

#: The cut of the witness condition |rho(w)|^2 in {0, rho(w*w)}.
TOL = 1e-7


def ref_is_compatible(inc, rho, words):
    """The word search's verdict: (True, None), or (False, w) for the first
    word w with |rho(w)|^2 away from both 0 and rho(w*w)."""
    W = np.array(words)
    lhs = np.abs(ref_coefficient_matrix(inc.C, W) @ rho.values) ** 2
    rhs = (ref_coefficient_matrix(inc.C, W.conj().transpose(0, 2, 1) @ W)
           @ rho.values).real
    scale = np.maximum(1.0, np.abs(rhs))
    bad = np.flatnonzero((lhs > TOL * scale)
                         & (np.abs(lhs - rhs) > TOL * scale))
    return (False, W[bad[0]]) if len(bad) else (True, None)


def ref_is_invariant(inc, F, word_bound=2):
    """The word search's invariance: every transport of every state of F
    by a word in the normalizer generators and their adjoints lands in
    F."""
    for rho in F:
        for v in ref_normalizer_words(inc, word_bound, include_d=False):
            if rho(v.conj().T @ v).real <= 1e-9:
                continue
            moved = ref_transported(inc, rho, v)
            if not any(moved.close_to(s) for s in F):
                return False
    return True


def is_witness(inc, rho, w):
    """w is a normalizer with |rho(w)|^2 away from both 0 and rho(w*w)."""
    lhs = abs(rho(w)) ** 2
    rhs = rho(w.conj().T @ w).real
    return is_normalizer(inc, w) and lhs > TOL and abs(lhs - rhs) > TOL


def corner_states(inc, count, seed):
    """``count`` pure and ``count`` mixed seeded densities on the range of
    each p_i, as corner states."""
    rng = np.random.default_rng(seed)
    n = inc.C.ambient_dim
    out = []
    for i, p in enumerate(inc.min_projs):
        for _ in range(count):
            x = p @ (rng.standard_normal(n) + 1j * rng.standard_normal(n))
            out.append(mod_state_from_density(
                inc, i, np.outer(x, x.conj()) / np.vdot(x, x).real))
            g = p @ (rng.standard_normal((n, n))
                     + 1j * rng.standard_normal((n, n)))
            rho = g @ g.conj().T
            out.append(mod_state_from_density(inc, i, rho / np.trace(rho)))
    return out


def m2c_state(*diag):
    m2c = m2c_inclusion()
    return m2c, mod_state_from_density(m2c, 0, np.diag(diag).astype(complex))


class TestCompatibility:
    def test_pure_m2_state_refused_with_witness(self):
        """rho(x) = x[0, 0]: the monomial words never leave {0, 1}, while
        exp(i pi/4 sigma_x) (+) 1 gives |rho(u)|^2 = 1/2."""
        m2c, rho = m2c_state(1, 0, 0)
        assert ref_check_mod_state(rho) == []
        ok, w = is_compatible_state(m2c, rho)
        assert not ok
        assert is_witness(m2c, rho, w)
        assert ref_is_compatible(m2c, rho, ref_normalizer_words(m2c))[0]

    def test_pure_m2_cover_refused(self):
        m2c, rho = m2c_state(1, 0, 0)
        with pytest.raises(NotCovering):
            build_cover(m2c, "custom", F=[rho])

    def test_witness_is_a_corner_unitary(self):
        """On M_2 (x) M_2 over D_2 (x) 1 the witness lives on one rank-2
        corner: a partial isometry u with u*u = uu* = p_i."""
        inc = non_scalar_rank_two()
        for i in range(2):
            rho = canonical_corner_state(inc, i)
            ok, u = is_compatible_state(inc, rho)
            assert not ok and is_witness(inc, rho, u)
            p = inc.min_projs[i]
            assert hs_norm(u.conj().T @ u - p) < 1e-10
            assert hs_norm(u @ u.conj().T - p) < 1e-10
            assert inc.C.contains(u)

    def test_word_bound_is_not_read(self):
        m2c, rho = m2c_state(1, 0, 0)
        for bound in (1, 4, 8):
            ok, w = is_compatible_state(m2c, rho, word_bound=bound)
            assert not ok and is_witness(m2c, rho, w)

    @pytest.mark.parametrize("name,inc", [
        ("m2c", m2c_inclusion()), ("D2 over C1", diagonal_scalar_inclusion()),
        ("M2", mndn_inclusion(2)), ("M3", mndn_inclusion(3)),
        ("M4", mndn_inclusion(4))])
    def test_sound_against_word_search(self, name, inc):
        """Every state the word search refutes is refuted, every refusal
        carries a witness, and on scalar corners the verdicts agree."""
        words = ref_normalizer_words(inc)
        states = corner_states(inc, 5, seed=len(name))
        for rho in states:
            assert ref_check_mod_state(rho) == []
            ref_ok, ref_w = ref_is_compatible(inc, rho, words)
            ok, w = is_compatible_state(inc, rho)
            if not ref_ok:
                assert is_witness(inc, rho, ref_w)
                assert not ok
            if inc.scalar_corners:
                assert ok == ref_ok
            if not ok:
                assert is_witness(inc, rho, w)
        if not inc.scalar_corners:
            # the random states are no characters of the corner
            assert not any(is_compatible_state(inc, rho)[0]
                           for rho in states)

    def test_characters_compatible(self):
        inc = diagonal_scalar_inclusion()
        for d in ([1.0, 0], [0, 1.0]):
            rho = mod_state_from_density(inc, 0, np.diag(d))
            assert is_compatible_state(inc, rho) == (True, None)
        m2c, rho = m2c_state(0, 0, 1)
        assert is_compatible_state(m2c, rho) == (True, None)


class TestInvariance:
    def test_tracial_state_invariant_but_not_compatible(self):
        """The normalized trace of m2c's M_2 part is tracial on the corner,
        so every transport fixes it; it is no character."""
        m2c, rho = m2c_state(0.5, 0.5, 0)
        assert _is_invariant(m2c, [rho])
        assert radical_ideal(m2c, [rho], check_invariance=True).dim
        with pytest.raises(NotCovering):
            build_cover(m2c, "custom", F=[rho])

    def test_basis_states_not_invariant(self):
        """x -> x[0, 0] and x -> x[1, 1] are swapped by every monomial
        word, but exp(i t sigma_x) (+) 1 moves them off the pair."""
        m2c = m2c_inclusion()
        e0, e1 = (mod_state_from_density(m2c, 0, np.diag(d).astype(complex))
                  for d in ([1, 0, 0], [0, 1, 0]))
        assert ref_is_invariant(m2c, [e0, e1], word_bound=4)
        assert not _is_invariant(m2c, [e0, e1])
        with pytest.raises(NotInvariant):
            radical_ideal(m2c, [e0, e1])

    @pytest.mark.parametrize("inc", [
        m2c_inclusion(), diagonal_scalar_inclusion(), mndn_inclusion(2),
        mndn_inclusion(3)])
    def test_sound_against_word_search(self, inc):
        """Sets the word search refutes are refuted; on scalar corners the
        verdicts agree."""
        states = corner_states(inc, 2, seed=inc.C.dim)
        sets = [states[k:k + 2] for k in range(0, len(states), 2)]
        sets += [[s] for s in states]
        sets.append([canonical_corner_state(inc, i)
                     for i in range(inc.n_corners)])
        for F in sets:
            ref = ref_is_invariant(inc, F)
            exact = _is_invariant(inc, F)
            assert exact <= ref
            if inc.scalar_corners:
                assert exact == ref

    def test_transport_reps(self):
        m3 = mndn_inclusion(3)
        assert _transport_reps(m3) is m3.corner_slices
        m2c = m2c_inclusion()
        reps = _transport_reps(m2c)
        assert list(reps) == [(0, 0)]
        assert hs_norm(reps[(0, 0)] - np.eye(3)) < 1e-12

    def test_undecided_between_non_scalar_corners(self):
        """M_2 (x) M_2 over D_2 (x) 1: rank-2 corners M_2 and nonzero
        slices between them, so no partial isometry is built and the
        answer is undecided, never a guess."""
        inc = non_scalar_rank_two()
        F = [canonical_corner_state(inc, i) for i in range(2)]
        with pytest.raises(InvarianceUndecided):
            radical_ideal(inc, F, check_invariance=True)
        with pytest.raises(InvarianceUndecided,
                           match="non-scalar corners 0 and 1$"):
            _transport_reps(inc)
        assert radical_ideal(inc, F, check_invariance=False).dim == 0

    def test_unequal_rank_slices_decided(self):
        """Nonzero slices between corners of unequal rank leave only u = p_i
        per corner, so invariance is decided there, as the word search
        decides it."""
        inc = unequal_rank_inclusion()
        assert not inc.scalar_corners
        reps = _transport_reps(inc)
        assert list(reps) == [(0, 0), (1, 1)]
        for (i, _), u in reps.items():
            assert hs_norm(u - inc.min_projs[i]) < 1e-12
        tracial = [canonical_corner_state(inc, i) for i in range(2)]
        # corner 0 is the rank-1 p = diag(0, 0, 1)
        pure = [tracial[0],
                mod_state_from_density(inc, 1, np.diag([1.0, 0, 0]))]
        assert ref_check_mod_state(pure[1]) == []
        assert radical_ideal(inc, tracial, check_invariance=True).dim == 0
        with pytest.raises(NotInvariant):
            radical_ideal(inc, pure, check_invariance=True)
        for F, verdict in ((tracial, True), (pure, False)):
            assert _is_invariant(inc, F) is verdict
            assert ref_is_invariant(inc, F) is verdict


def test_inclusion_draws_nothing_random():
    assert "random" not in (SRC / "inclusion.py").read_text()
    for name in WORD_SEARCH:
        assert not hasattr(cartankit.inclusion, name)

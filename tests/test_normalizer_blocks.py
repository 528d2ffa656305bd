"""The normalizer check on the corner blocks Q_j* v Q_i, cross-checked
against the dense check it replaced: v d v* and v* d v tested in D for
every basis element d of D (``ref_is_normalizer``), the refusals of a loop
over the generators (``ref_make_inclusion_error``) and beta read off the
stack v* p_j v (``ref_beta_targets``)."""

import functools

import numpy as np
import pytest

from cartankit.errors import NotANormalizer
from cartankit.inclusion import beta, is_normalizer, make_inclusion
from cartankit.matalg import NORMALIZER_TOL, generate_star_algebra
from cartankit.reduced import groupoid_inclusion, realize
from conftest import E, m2c_inclusion, random_twist_corpus, ref_element, \
    unequal_rank_inclusion
from test_class_twist import conjugated
from test_stacked_kernel import ref_beta_targets, ref_is_normalizer, \
    ref_make_inclusion_error, ref_normalizer_defect


def m2_tensor_d2():
    """M_2 (x) D_2 over D_2 (x) 1: non-scalar corners E_ii (x) D_2, and
    slices E_ji (x) D_2 holding the normalizers E_ji (x) diag(a, b) with
    |a| = |b| and the rank-one pieces E_ji (x) E_kk that are none."""
    gens = [np.kron(E(i, j, 2), s) for i in range(2) for j in range(2)
            for s in (np.eye(2), np.diag([1.0, -1.0]))]
    C = generate_star_algebra(4, gens)
    D = generate_star_algebra(4, [np.kron(E(i, i, 2), np.eye(2))
                                  for i in range(2)])
    return make_inclusion(C, D, gens)


@functools.lru_cache(maxsize=None)
def cases():
    out = []
    for k, T in enumerate(random_twist_corpus(10, seed=41)):
        inc = groupoid_inclusion(realize(T))
        out += [(f"corpus{k}", inc), (f"corpus{k}-conj", conjugated(inc, k))]
    return tuple(out + [("m2c", m2c_inclusion()),
                        ("m2xd2", m2_tensor_d2()),
                        ("unequal_rank", unequal_rank_inclusion())])


@pytest.fixture(params=range(len(cases())), ids=[k for k, _ in cases()])
def inc(request):
    return cases()[request.param][1]


def _moved(inc, vs, size, rng):
    """Each v moved inside C by size times a random unit-HS-norm element."""
    out = []
    for v in vs:
        w = ref_element(inc.C, rng.standard_normal(inc.C.dim)
                        + 1j * rng.standard_normal(inc.C.dim))
        out.append(v + size * w / np.linalg.norm(w))
    return out


def _unitary(inc, rng):
    """exp(i h) for a random self-adjoint h in C: v*v = vv* = 1 lie in D,
    so only the rows and columns of N can refuse it."""
    x = ref_element(inc.C, rng.standard_normal(inc.C.dim))
    lam, U = np.linalg.eigh(x + x.conj().T)
    return (U * np.exp(1j * lam)) @ U.conj().T


def candidates(inc):
    """(v, expected verdict or None) over the listed normalizers, also
    scaled by 1e-3 and 1e3 and moved inside C by 1e-9 (accepted) and by
    1e-6, C's basis, random elements and random unitaries of C.  A move by
    1e-6 puts v about 1e-7 off, at the cut; and one orthogonal to v's
    support, such as a move within a corner v does not reach, is seen only
    at second order."""
    rng = np.random.default_rng(3)
    listed = list(inc.normalizer_gens)
    out = [(s * v, True) for s in (1.0, 1e-3, 1e3) for v in listed]
    out += [(v, True) for v in _moved(inc, listed, 1e-9, rng)]
    out += [(v, None) for v in _moved(inc, listed, 1e-6, rng)]
    out += [(b, None) for b in inc.C.basis]
    out += [(ref_element(inc.C, rng.standard_normal(inc.C.dim)), None)
            for _ in range(3)]
    return out + [(_unitary(inc, rng), None) for _ in range(3)]


def _agreed(inc):
    """The candidates both checks decide alike, after asserting that they
    differ only inside the band where the block check is the stricter:
    its v*v term weighs D's unit, of HS norm sqrt(n), where the dense
    check weighs unit-norm basis elements of D."""
    n, out = inc.C.ambient_dim, []
    for v, expected in candidates(inc):
        want, got = ref_is_normalizer(inc, v), is_normalizer(inc, v)
        assert expected is None or got == expected
        if got == want:
            out.append(v)
        else:
            assert want and not got
            assert ref_normalizer_defect(inc, v) > NORMALIZER_TOL / n
    return out


def test_is_normalizer_matches_dense_check(inc):
    verdicts = [is_normalizer(inc, v) for v in _agreed(inc)]
    assert True in verdicts
    if inc.C.dim > inc.D.dim:
        assert False in verdicts


def test_beta_matches_dense_read(inc):
    for v, _ in candidates(inc):
        if not is_normalizer(inc, v):
            with pytest.raises(NotANormalizer):
                beta(inc, v)
            continue
        want = ref_beta_targets(inc, v)
        dom = np.flatnonzero(want >= 0)
        assert beta(inc, v) == dict(zip(dom.tolist(), want[dom].tolist()))


def test_make_inclusion_refusals_match(inc):
    """The refusal type of each candidate alone, of all of them in order
    and of the accepted ones after a refused one."""
    cands = _agreed(inc)
    good = [v for v in cands if ref_is_normalizer(inc, v)]
    bad = [v for v in cands if not ref_is_normalizer(inc, v)]
    for gens in [[v] for v in cands] + [cands, good, bad[:1] + good]:
        want = ref_make_inclusion_error(inc, gens)
        if want is None:
            make_inclusion(inc.C, inc.D, gens)
        else:
            with pytest.raises(want):
                make_inclusion(inc.C, inc.D, gens)


def test_rows_and_columns_both_decide():
    """M_4 over span{E_00 + E_11, E_22, E_33}: v = E_02 + E_13 has v*v =
    E_22 + E_33 and vv* = E_00 + E_11 in D and one nonzero block in each
    column of N, but two in row 0, and v E_22 v* = E_00 is not in D.  Only
    the row check refuses v, and only the column check refuses v*."""
    units = [E(i, j, 4) for i in range(4) for j in range(4)]
    D = generate_star_algebra(4, [E(0, 0, 4) + E(1, 1, 4), E(2, 2, 4)])
    inc = make_inclusion(generate_star_algebra(4, units), D)
    v = E(0, 2, 4) + E(1, 3, 4)
    for w in (v, v.conj().T):
        assert not ref_is_normalizer(inc, w)
        assert not is_normalizer(inc, w)
        with pytest.raises(NotANormalizer):
            make_inclusion(inc.C, inc.D, [w])

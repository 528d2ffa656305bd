"""The corner-character kernel ``Inclusion._chars``: sigma_i(x) =
tr(p_i x)/tr p_i for every corner at once, and the normalizer dynamics
that read it (beta, theta, the fixed-point ideal, the fixed-set check and
the pseudo-expectations), cross-checked against the per-corner and
per-corner-pair loops they replace (kept here as references)."""

import functools

import numpy as np
import pytest

from cartankit.errors import CartanKitError, NotANormalizer
from cartankit.inclusion import (
    PseudoExpectation,
    _require_normalizer,
    beta,
    canonical_expectation,
    fixed_point_ideal,
    fixed_set_check,
    theta,
)
from cartankit.matalg import (
    EPS,
    NORMALIZER_TOL,
    STATE_TOL,
    _vec,
    ideal_from_subspace,
    null_space,
    row_span,
    span_residual,
)
from conftest import m2c_inclusion, mndn_inclusion, ref_element
from test_class_twist import conjugated_m4
from test_corner_slices import tensor_inclusion
from test_envelope import diagonal_scalar_inclusion

TOL = 1e-12


# --- the loop versions, as references ------------------------------------

def ref_char(inc, i, d):
    p = inc.min_projs[i]
    vals = np.trace(p @ np.asarray(d, dtype=complex) @ p,
                    axis1=-2, axis2=-1) / np.trace(p)
    return complex(vals) if vals.ndim == 0 else vals


def ref_beta(inc, v):
    v = _require_normalizer(inc, v)
    vv = v.conj().T @ v
    out = {}
    for i in range(inc.n_corners):
        wt = ref_char(inc, i, vv).real
        if wt <= EPS:
            continue
        # beta_v(sigma_i)(d) = sigma_i(v* d v)/sigma_i(v*v): a character
        targets = [j for j in range(inc.n_corners)
                   if abs(ref_char(inc, i, v.conj().T @ inc.min_projs[j] @ v)
                          / wt - 1.0) < STATE_TOL]
        if len(targets) != 1:
            raise NotANormalizer(
                f"corner {i} does not map to a unique corner under v")
        out[i] = targets[0]
    return out


def ref_theta(inc, v):
    """(domain, codomain) of theta_v."""
    v = _require_normalizer(inc, v)
    vv = v @ v.conj().T
    dom = tuple(j for j in range(inc.n_corners)
                if abs(ref_char(inc, j, vv)) > EPS)
    return dom, tuple(sorted(ref_beta(inc, v).keys()))


def ref_theta_apply(inc, v, domain, d):
    vv = v @ v.conj().T
    h = np.zeros_like(vv)
    for j in domain:
        p = inc.min_projs[j]
        h += (ref_char(inc, j, d) / ref_char(inc, j, vv)) * p
    return v.conj().T @ h @ v


def ref_fixed_point_ideal(inc, v):
    v = _require_normalizer(inc, v)
    vv = v @ v.conj().T
    support = [j for j in range(inc.n_corners)
               if abs(ref_char(inc, j, vv)) > EPS]
    if not support:
        return ideal_from_subspace(inc.D,
                                   np.zeros((0, inc.D.ambient_dim ** 2)))
    projs = [inc.min_projs[j] for j in support]
    S = inc.commutant_of_D.stack
    K = np.array([np.concatenate([(v @ p - p @ v).ravel(),
                                  (v @ p @ S - S @ v @ p).ravel()])
                  for p in projs]).T
    return ideal_from_subspace(inc.D, row_span(null_space(K) @ _vec(projs)))


def ref_fixed_set_check(inc, v):
    """The per-corner check with its p_i in K0 branch."""
    v = _require_normalizer(inc, v)
    K0 = ref_fixed_point_ideal(inc, v)
    b = ref_beta(inc, v)
    fixed = {i for i, j in b.items() if i == j}
    support = set()
    for i in b:
        p = inc.min_projs[i]
        if K0.dim and span_residual(K0.basis_rows, p) < NORMALIZER_TOL:
            support.add(i)
        elif K0.dim and np.any(np.abs(ref_char(inc, i, np.array(K0.basis)))
                               > STATE_TOL):
            support.add(i)
    return (support == fixed, {"support": sorted(support),
                               "fixed": sorted(fixed)})


def ref_pseudo_expectation(E, x):
    x = np.asarray(x, dtype=complex)
    out = np.zeros_like(x)
    for p, rho in zip(E.inclusion.min_projs, E.corner_densities):
        out += np.trace(rho @ p @ x @ p) * p
    return out


# --- fixtures -------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def fixtures():
    out = [(f"mndn{n}", mndn_inclusion(n)) for n in range(2, 9)]
    out += [("conjugated_m4", conjugated_m4()), ("m2c", m2c_inclusion()),
            ("m2_tensor_1_2", tensor_inclusion(2)),
            ("d2_scalar", diagonal_scalar_inclusion())]
    return tuple(out)


def _ids():
    return [name for name, _ in fixtures()]


@pytest.fixture(params=range(len(_ids())), ids=_ids())
def inc(request):
    return fixtures()[request.param][1]


def _normalizers(inc):
    """Every generator v, the unit and 0, and each times h = sum_j (j + 2)
    p_j in D, whose sigma_j(vv*) differ from corner to corner."""
    n = inc.C.ambient_dim
    h = np.tensordot(np.arange(2.0, inc.n_corners + 2), inc.min_projs, 1)
    vs = list(inc.normalizer_gens) + [np.asarray(inc.C.unit)]
    return vs + [v @ h for v in vs] + [np.zeros((n, n), dtype=complex)]


def _refused(inc):
    """C's basis and generic elements of C that are no normalizers, a
    matrix outside C when C is not M_n, and one of the wrong shape."""
    n = inc.C.ambient_dim
    rng = np.random.default_rng(n)
    cands = list(inc.C.basis) + [
        ref_element(inc.C, rng.standard_normal(inc.C.dim)) for _ in range(2)]
    out = [v for v in cands
           if not _outcome(lambda: _require_normalizer(inc, v))[0]]
    x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    if not inc.C.contains(x):
        out.append(x)
    return out + [np.eye(n + 1)]


def _outcome(call):
    """(True, result) or (False, (type, message)) of the error raised."""
    try:
        return True, call()
    except (CartanKitError, ValueError) as err:
        return False, (type(err), str(err))


def _close(a, b):
    return np.max(np.abs(np.asarray(a) - np.asarray(b)), initial=0.0) < TOL


def _ideal_projection(K):
    """The orthogonal projection onto an ideal's span, as a matrix on
    vec(M_n): independent of the basis the null space returned."""
    return K.basis_rows.T @ K.basis_rows.conj()


# --- the kernel against the loops ------------------------------------------

def test_char_on_a_matrix_and_a_stack(inc):
    rng = np.random.default_rng(1)
    x = ref_element(inc.C, rng.standard_normal(inc.C.dim))
    for i in range(inc.n_corners):
        assert isinstance(inc.char(i, x), complex)
        assert _close(inc.char(i, x), ref_char(inc, i, x))
        assert _close(inc.char(i, inc.C.stack), ref_char(inc, i, inc.C.stack))
    assert _close(inc._chars(inc.C.stack),
                  np.array([ref_char(inc, i, inc.C.stack)
                            for i in range(inc.n_corners)]).T)


def test_beta_and_theta(inc):
    for v in _normalizers(inc):
        assert beta(inc, v) == ref_beta(inc, v)
        th = theta(inc, v)
        assert (th.domain, th.codomain) == ref_theta(inc, v)
        vv = v @ v.conj().T
        for d in [vv @ b for b in inc.D.basis] + list(inc.D.basis):
            assert _close(th.apply(d),
                          ref_theta_apply(inc, v, th.domain, d))


def test_fixed_point_ideal_and_fixed_set_check(inc):
    for v in _normalizers(inc):
        K0, want = fixed_point_ideal(inc, v), ref_fixed_point_ideal(inc, v)
        assert K0.dim == want.dim
        assert _close(_ideal_projection(K0), _ideal_projection(want))
        assert _close(K0.support_projection, want.support_projection)
        assert fixed_set_check(inc, v) == ref_fixed_set_check(inc, v)


def test_pseudo_expectation_apply(inc):
    """The canonical expectation and one with rank-one corner densities on
    a column of each p_i, on C's basis and on a generic matrix."""
    rng = np.random.default_rng(2)
    n = inc.C.ambient_dim
    columns = [p[:, np.flatnonzero(np.abs(p).sum(axis=0))[0]]
               for p in inc.min_projs]
    rank_one = PseudoExpectation(inc, tuple(
        np.outer(x, x.conj()) / np.vdot(x, x) for x in columns))
    xs = list(inc.C.basis) + [rng.standard_normal((n, n))
                              + 1j * rng.standard_normal((n, n))]
    for E in (canonical_expectation(inc), rank_one):
        for x in xs:
            assert _close(E.apply(x), ref_pseudo_expectation(E, x))


def test_refusals(inc):
    refused = _refused(inc)
    assert refused
    for v in refused:
        for fn, ref in ((beta, ref_beta), (fixed_point_ideal,
                                           ref_fixed_point_ideal),
                        (fixed_set_check, ref_fixed_set_check)):
            got = _outcome(lambda: fn(inc, v))
            assert not got[0] and got == _outcome(lambda: ref(inc, v))
        got = _outcome(lambda: theta(inc, v))
        assert not got[0] and got == _outcome(lambda: ref_theta(inc, v))


def test_fixed_set_check_without_the_projection_branch():
    """The character test alone finds every corner whose p_i lies in K0:
    on a diagonal unitary of M_n every p_i is in K0 = D."""
    for n in (2, 5, 8):
        inc = mndn_inclusion(n)
        u = np.diag(np.exp(1j * np.arange(n))).astype(complex)
        K0 = fixed_point_ideal(inc, u)
        assert all(span_residual(K0.basis_rows, p) < NORMALIZER_TOL
                   for p in inc.min_projs)
        assert fixed_set_check(inc, u) == (True, {
            "support": list(range(n)), "fixed": list(range(n))})

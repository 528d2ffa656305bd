"""The stacked-basis kernel: states, eigenfunctionals, Grams and the
normalizer, containment and commutation checks computed as contractions
over the basis stack of C, cross-checked against the per-basis-element
loop versions they replace (kept here as references)."""

import ast
import functools
import gc
import json
import pathlib
import weakref

import numpy as np
import pytest

import cartankit.inclusion
from cartankit import cli
from cartankit.envelope import cartan_envelope, eigenfunctional
from cartankit.errors import NonSquareMatrix, NotANormalizer, OutsideAmbient
from cartankit.groupoid import disjoint_union, klein_four_groupoid, \
    pair_groupoid
from cartankit.inclusion import (
    ModState,
    PseudoExpectation,
    _functional,
    _gram,
    _left_kernel_subspace,
    _located_state,
    _transports,
    canonical_corner_state,
    is_normalizer,
    make_inclusion,
    mod_state_from_density,
    pseudo_expectations,
    radical_ideal,
    strongly_compatible,
)
from cartankit.matalg import (
    EPS,
    STATE_TOL,
    FdStarAlgebra,
    _commutators,
    _fixed_draws,
    generate_star_algebra,
    hs_norm,
    minimal_projections,
    null_space,
    relative_commutant,
    row_span,
    span_residual,
    span_residuals,
)
from cartankit.reduced import groupoid_inclusion, is_cartan_pair, realize, \
    reduced_norm
from cartankit.serialize import inclusion_to_json, twist_to_json
from cartankit.twist import delta
from conftest import k4_nontrivial_sigma, m2c_inclusion, mndn_inclusion, \
    random_coboundary, random_twist_corpus, ref_coefficient_matrix, \
    ref_element, subspace_equals, ulps_apart
from test_envelope import diagonal_scalar_inclusion

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "cartankit"
TOL = 1e-12


# --- the loop versions, as references ------------------------------------

def _functional_values(inc, func):
    return np.array([func(b) for b in inc.C.basis], dtype=complex)


def ref_mod_state_values(inc, i, rho):
    p = inc.min_projs[i]
    return _functional_values(inc, lambda x: np.trace(rho @ p @ x @ p))


def ref_strongly_compatible(inc):
    E = pseudo_expectations(inc).expectation
    return [_functional_values(inc, lambda x: inc.char(i, E.apply(x)))
            for i in range(inc.n_corners)]


def _ref_corner(inc, vals):
    return max(range(inc.n_corners),
               key=lambda j: (vals @ inc.C.coefficients(
                   inc.min_projs[j])).real)


def ref_transported(inc, rho, v):
    """The transported state x -> rho(v* x v)/rho(v*v), at the corner it
    is largest on."""
    wt = rho(v.conj().T @ v).real
    vals = _functional_values(inc, lambda x: rho(v.conj().T @ x @ v) / wt)
    return ModState(inc, _ref_corner(inc, vals), vals)


def ref_eigenfunctional(inc, v, f):
    root = np.sqrt(complex(f(v.conj().T @ v)).real)
    return _functional_values(inc, lambda x: f(v.conj().T @ x) / root)


def ref_range(phi):
    inc = phi.inclusion
    pv = complex(phi(phi.v))
    vals = _functional_values(inc, lambda x: phi(x @ phi.v) / pv)
    return vals, _ref_corner(inc, vals)


def ref_transported_cm(inc, rho, v):
    """The coefficient-matrix transport the density path replaced: the
    d x d coefficients of the stack v* S v, applied to rho's values."""
    vh = v.conj().T
    return ref_coefficient_matrix(inc.C, vh @ inc.C.stack @ v) \
        @ rho.values / rho(vh @ v).real


def ref_eigenfunctional_cm(inc, v, f):
    """The coefficient-matrix eigenfunctional: coefficients of v* S."""
    root = np.sqrt(complex(f(v.conj().T @ v)).real)
    return ref_coefficient_matrix(inc.C, v.conj().T @ inc.C.stack) \
        @ f.values / root


def ref_range_cm(phi):
    """The coefficient-matrix range state: coefficients of S v."""
    C = phi.inclusion.C
    return ref_coefficient_matrix(C, C.stack @ phi.v) @ phi.values \
        / complex(phi(phi.v))


def ref_gram(inc, rho):
    basis = inc.C.basis
    return np.array([[rho(a.conj().T @ b) for b in basis] for a in basis])


def ref_normalizer_defect(inc, v):
    """The largest distance from D of v d v* and v* d v over D's basis."""
    vh = v.conj().T
    return max(span_residual(inc.D.basis_rows, x) for d in inc.D.basis
               for x in (v @ d @ vh, vh @ d @ v))


def ref_is_normalizer(inc, v, eps=EPS):
    return ref_normalizer_defect(inc, v) < max(eps, 1e-7)


def ref_beta_targets(inc, v):
    """beta_v read off the stack v* p_j v with the corner characters, as
    ``_beta_targets`` did before it read the blocks of v: entry i is the
    j with sigma_i(v* p_j v) = sigma_i(v*v), or -1 where sigma_i(v*v) = 0."""
    vh = v.conj().T
    wt = inc._chars(vh @ v).real
    live = wt > EPS
    hits = np.abs(inc._chars(vh @ inc._projs @ v)[:, live] / wt[live]
                  - 1.0) < STATE_TOL
    if (hits.sum(axis=0) != 1).any():
        raise NotANormalizer("a corner does not map to a unique corner")
    out = np.full(inc.n_corners, -1)
    out[live] = hits.argmax(axis=0)
    return out


def ref_make_inclusion_error(inc, gens, eps=EPS):
    """The error ``make_inclusion`` raised when it checked the generators
    one ``is_normalizer`` call at a time, or None."""
    for v in gens:
        if not inc.C.contains(v, max(eps, 1e-7)):
            return OutsideAmbient
        if not ref_is_normalizer(inc, v, eps):
            return NotANormalizer
    return None


def ref_is_abelian(A, eps=EPS):
    return all(hs_norm(a @ b - b @ a) < eps
               for i, a in enumerate(A.basis) for b in A.basis[i + 1:])


def ref_is_subalgebra_of(A, B, eps=EPS):
    return all(B.contains(b, eps) for b in A.basis)


def ref_subspace_equals(A, B, eps=EPS):
    if A.dim != B.dim:
        return False
    return ref_is_subalgebra_of(A, B, eps) and ref_is_subalgebra_of(B, A, eps)


def ref_commutant_K(A, within):
    blocks = []
    for a in A.basis:
        cols = [(a @ b - b @ a).ravel() for b in within.basis]
        blocks.append(np.array(cols).T)
    return np.vstack(blocks)


def ref_generate_rows(n, gens):
    """The span the loop version of generate_star_algebra converges to."""
    gens = [np.asarray(g, dtype=complex) for g in gens]
    seed = gens + [g.conj().T for g in gens] + [np.eye(n, dtype=complex)]
    rows = row_span(np.array([m.ravel() for m in seed]))
    while True:
        mats = [r.reshape(n, n) for r in rows]
        prods = [a @ b for a in mats for b in mats]
        new_rows = row_span(np.vstack(
            [rows, np.array([m.ravel() for m in prods])]))
        if new_rows.shape[0] == rows.shape[0]:
            return rows
        rows = new_rows


def ref_check_star_algebra(A, eps=EPS):
    bad = []
    rows = A.basis_rows
    for i, a in enumerate(A.basis):
        for j, b in enumerate(A.basis):
            r = span_residual(rows, a @ b)
            if r >= eps:
                bad.append(f"product of basis elements {i},{j} leaves span "
                           f"(residual {r:.2e})")
        r = span_residual(rows, a.conj().T)
        if r >= eps:
            bad.append(f"adjoint of basis element {i} leaves span "
                       f"(residual {r:.2e})")
    if span_residual(rows, A.unit) >= eps:
        bad.append("unit not in span of basis")
    for i, b in enumerate(A.basis):
        if hs_norm(A.unit @ b - b) >= eps or hs_norm(b @ A.unit - b) >= eps:
            bad.append(f"unit does not act as identity on basis element {i}")
    gram = rows @ rows.conj().T
    if np.max(np.abs(gram - np.eye(A.dim))) >= eps:
        bad.append("basis not HS-orthonormal")
    return bad


def batched_check_star_algebra(A, eps=EPS):
    """``ref_check_star_algebra``'s list, the products and adjoints measured
    a stack at a time: a_i times the whole basis per step, so memory stays
    at d n^2."""
    rows, S = A.basis_rows, A.stack
    Sh = S.conj().transpose(0, 2, 1)
    adjoint = span_residuals(rows, Sh.reshape(A.dim, -1))
    bad = []
    for i, a in enumerate(S):
        bad += [f"product of basis elements {i},{j} leaves span "
                f"(residual {r:.2e})" for j, r in enumerate(
                    span_residuals(rows, (a @ S).reshape(A.dim, -1)))
                if r >= eps]
        if adjoint[i] >= eps:
            bad.append(f"adjoint of basis element {i} leaves span "
                       f"(residual {adjoint[i]:.2e})")
    if span_residual(rows, A.unit) >= eps:
        bad.append("unit not in span of basis")
    acts = np.maximum(np.linalg.norm(A.unit @ S - S, axis=(1, 2)),
                      np.linalg.norm(S @ A.unit - S, axis=(1, 2)))
    bad += [f"unit does not act as identity on basis element {i}"
            for i in np.flatnonzero(acts >= eps)]
    gram = rows @ rows.conj().T
    if np.max(np.abs(gram - np.eye(A.dim))) >= eps:
        bad.append("basis not HS-orthonormal")
    return bad


def ref_check_mod_state(rho, eps=1e-7):
    inc = rho.inclusion
    bad = []
    if abs(rho(inc.C.unit) - 1.0) > eps:
        bad.append("not unital")
    gram = ref_gram(inc, rho)
    evals = np.linalg.eigvalsh(0.5 * (gram + gram.conj().T))
    if evals.min() < -eps:
        bad.append(f"Gram matrix not PSD (min eigenvalue {evals.min():.2e})")
    for j, p in enumerate(inc.min_projs):
        want = 1.0 if j == rho.corner_index else 0.0
        if abs(rho(p) - want) > eps:
            bad.append(f"restriction to D wrong at corner {j}")
    p = inc.min_projs[rho.corner_index]
    for b in inc.C.basis:
        if abs(rho(b) - rho(p @ b @ p)) > eps:
            bad.append("state not concentrated on its corner")
            break
    return bad


def ref_minimal_projections(D, eps=EPS):
    """The loop version, up to the ordering (its generic element is summed
    one basis element at a time), on the same fixed coefficient stream."""
    n = D.ambient_dim
    draw = _fixed_draws()
    complement = np.eye(n, dtype=complex) - D.unit
    for attempt in range(8):
        t = draw(D.dim)
        s = draw(D.dim)
        h = np.zeros((n, n), dtype=complex)
        for tj, sj, b in zip(t, s, D.basis):
            h += tj * (b + b.conj().T) + sj * 1j * (b - b.conj().T)
        sentinel = 10.0 * (1.0 + float(np.abs(h).sum()))
        evals, evecs = np.linalg.eigh(h + sentinel * complement)
        order = np.argsort(evals)
        evals, evecs = evals[order], evecs[:, order]
        gap = max(1e-7, 1e-7 * max(1.0, float(np.abs(evals).max())))
        groups, start = [], 0
        for i in range(1, len(evals) + 1):
            if i == len(evals) or evals[i] - evals[i - 1] > gap:
                groups.append(range(start, i))
                start = i
        projs, ok = [], True
        for g in groups:
            v = evecs[:, list(g)]
            p = v @ v.conj().T
            if hs_norm(p @ D.unit - p) < eps:
                if not D.contains(p, 1e-7):
                    ok = False
                    break
                projs.append(p)
        if ok and len(projs) == D.dim:
            break

    def key(p):
        flat = np.round(p.ravel(), 6)
        return tuple(x for z in flat for x in (z.real, z.imag))
    return tuple(sorted(projs, key=key))


# --- fixtures -------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def fixtures():
    out = [(f"mndn{n}", mndn_inclusion(n)) for n in (2, 3, 4, 5)]
    out.append(("m2c", m2c_inclusion()))
    out.append(("d2_scalar", diagonal_scalar_inclusion()))
    for k, T in enumerate(random_twist_corpus(12, seed=2)):
        R = realize(T)
        if is_cartan_pair(R).is_cartan:
            out.append((f"corpus{k}", groupoid_inclusion(R)))
    return tuple(out)


def _ids():
    return [name for name, _ in fixtures()]


@pytest.fixture(params=range(len(_ids())), ids=_ids())
def inc(request):
    return fixtures()[request.param][1]


def _densities(inc, i):
    """The normalized corner projection and a random density in the
    corner (rank-one vectors inside p_i)."""
    p = inc.min_projs[i]
    rng = np.random.default_rng(i)
    x = p @ (rng.standard_normal(p.shape[0])
             + 1j * rng.standard_normal(p.shape[0]))
    return [p / np.trace(p), np.outer(x, x.conj()) / np.vdot(x, x)]


def _states(inc):
    if pseudo_expectations(inc).unique:
        return list(strongly_compatible(inc))
    return [canonical_corner_state(inc, i) for i in range(inc.n_corners)]


def _normalizers(inc):
    out = list(inc.normalizer_gens)
    if inc.corner_slices is not None:
        out += list(inc.corner_slices.values())
    return out + [np.asarray(inc.C.unit)]


def _close(a, b):
    return np.max(np.abs(np.asarray(a) - np.asarray(b)), initial=0.0) < TOL


# --- L3 / L4 functionals ---------------------------------------------------

class TestFunctionals:
    def test_mod_state_from_density(self, inc):
        for i in range(inc.n_corners):
            for rho in _densities(inc, i):
                s = mod_state_from_density(inc, i, rho)
                assert s.corner_index == i
                assert _close(s.values, ref_mod_state_values(inc, i, rho))

    def test_strongly_compatible(self, inc):
        if not pseudo_expectations(inc).unique:
            pytest.skip("no unique pseudo-expectation")
        got = strongly_compatible(inc)
        want = ref_strongly_compatible(inc)
        assert [s.corner_index for s in got] == list(range(inc.n_corners))
        for s, vals in zip(got, want):
            assert _close(s.values, vals)

    def test_transported_state(self, inc):
        """The density transport ``_is_invariant`` runs: the values of
        conj(v) W v^T over its trace, at the corner they are largest on."""
        checked = 0
        for rho in _states(inc):
            for v in _normalizers(inc):
                if rho(v.conj().T @ v).real <= 1e-9:
                    continue
                W = _transports(rho.density, v)
                moved = _located_state(inc, _functional(inc.C, W)
                                       / np.trace(W).real)
                want = ref_transported(inc, rho, v)
                assert moved.corner_index == want.corner_index
                assert _close(moved.values, want.values)
                assert _close(moved.values, ref_transported_cm(inc, rho, v))
                checked += 1
        assert checked

    def test_eigenfunctional_and_range(self, inc):
        checked = 0
        for f in _states(inc):
            for v in _normalizers(inc):
                if complex(f(v.conj().T @ v)).real <= 1e-9:
                    continue
                phi = eigenfunctional(inc, v, f)
                assert _close(phi.values, ref_eigenfunctional(inc, v, f))
                assert _close(phi.values, ref_eigenfunctional_cm(inc, v, f))
                vals, corner = ref_range(phi)
                assert phi.range.corner_index == corner
                assert _close(phi.range.values, vals)
                assert _close(phi.range.values, ref_range_cm(phi))
                checked += 1
        assert checked

    def test_radical_ideal_gram(self, inc):
        rng = np.random.default_rng(9)
        noise = ModState(inc, 0, rng.standard_normal(inc.C.dim)
                         + 1j * rng.standard_normal(inc.C.dim))
        assert _close(_gram(inc.C, noise.values), ref_gram(inc, noise))
        F = _states(inc)
        total = np.zeros((inc.C.dim, inc.C.dim), dtype=complex)
        for rho in F:
            gram = ref_gram(inc, rho)
            assert _close(_gram(inc.C, rho.values), gram)
            total += 0.5 * (gram + gram.conj().T)
        want = null_space(total) @ inc.C.basis_rows
        got = radical_ideal(inc, F, check_invariance=False)
        assert got.dim == want.shape[0]
        if got.dim:
            assert _close(got.basis_rows.T @ got.basis_rows.conj(),
                          want.T @ want.conj())


    def test_left_kernel_subspace(self, inc):
        """Against the loop K, for the canonical expectation and for
        rank-one corner densities on a column of p_i (exact eigenvalues,
        so the left kernel is not zero when some corner has rank > 1)."""
        canonical = tuple(p / np.trace(p) for p in inc.min_projs)
        columns = [p[:, np.flatnonzero(np.abs(p).sum(axis=0))[0]]
                   for p in inc.min_projs]
        rank_one = tuple(np.outer(x, x.conj()) / np.vdot(x, x)
                         for x in columns)
        for dens in (canonical, rank_one):
            E = PseudoExpectation(inc, dens)
            roots = []
            for p, rho in zip(inc.min_projs, dens):
                evals, evecs = np.linalg.eigh(rho)
                evals = np.clip(evals, 0.0, None)
                roots.append(p @ evecs @ np.diag(np.sqrt(evals))
                             @ evecs.conj().T)
            K = np.array([np.concatenate([(b @ r).ravel() for r in roots])
                          for b in inc.C.basis]).T
            want = null_space(K) @ inc.C.basis_rows
            got = _left_kernel_subspace(inc, E)
            assert got.dim == want.shape[0]
            if got.dim:
                assert _close(got.basis_rows.T @ got.basis_rows.conj(),
                              want.T @ want.conj())


# --- L0 / L3 checks ----------------------------------------------------------

def _algebras(inc):
    out = [inc.C, inc.D, inc.commutant_of_D]
    out += [c.algebra for c in pseudo_expectations(inc).corners]
    return out


def _perturbed(A, delta, seed=0):
    """A's basis moved by delta times unit-norm random matrices: its
    residuals and commutators sit between the tolerances tested below."""
    rng = np.random.default_rng(seed)
    n = A.ambient_dim
    moved = []
    for b in A.basis:
        x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        moved.append(b + delta * x / np.linalg.norm(x))
    return FdStarAlgebra(n, tuple(moved), A.unit)


def _near_algebras(inc):
    return _algebras(inc) + [_perturbed(inc.C, 5e-9), _perturbed(inc.D, 5e-9),
                             _perturbed(inc.D, 5e-8, seed=1)]


class TestChecks:
    def test_is_normalizer(self, inc):
        rng = np.random.default_rng(5)
        cands = _normalizers(inc) + list(inc.C.basis)
        cands += [ref_element(inc.C, rng.standard_normal(inc.C.dim))
                  for _ in range(3)]
        # normalizers moved inside C by 1e-6: refused
        cands += [v + 1e-6 * ref_element(inc.C, rng.standard_normal(inc.C.dim))
                  / np.sqrt(inc.C.dim) for v in _normalizers(inc)]
        verdicts = []
        for v in cands:
            want = ref_is_normalizer(inc, v)
            assert is_normalizer(inc, v) == want
            verdicts.append(want)
        assert True in verdicts
        if inc.C.dim > inc.D.dim:
            assert False in verdicts

    def test_make_inclusion_stacked(self, inc):
        """One stacked check of all generators refuses the same lists as a
        loop of ``ref_is_normalizer`` calls, with the error of the first
        failing generator."""
        n = inc.C.ambient_dim
        rng = np.random.default_rng(7)
        good = _normalizers(inc)
        bad = [v for v in list(inc.C.basis) + [
            ref_element(inc.C, rng.standard_normal(inc.C.dim))]
            if not ref_is_normalizer(inc, v)]
        outside = [m for m in (rng.standard_normal((n, n)) for _ in range(3))
                   if not inc.C.contains(m, 1e-7)]
        lists = [good, good[:1] + bad[:1] + outside[:1],
                 good[:1] + outside[:1] + bad[:1], bad + good, outside + bad]
        lists += [[v] for v in good + bad + outside]
        for gens in lists:
            want = ref_make_inclusion_error(inc, gens)
            if want is None:
                make_inclusion(inc.C, inc.D, gens)
            else:
                with pytest.raises(want):
                    make_inclusion(inc.C, inc.D, gens)
        if bad and outside:
            # the second generator fails, the third lies outside C
            with pytest.raises(NotANormalizer):
                make_inclusion(inc.C, inc.D, lists[1])
            with pytest.raises(OutsideAmbient):
                make_inclusion(inc.C, inc.D, lists[2])

    def test_is_abelian(self, inc):
        for A in _near_algebras(inc):
            for eps in (EPS, 1e-8):
                assert A.is_abelian(eps) == ref_is_abelian(A, eps)

    def test_subspace_equals_and_subalgebra(self, inc):
        algs = _near_algebras(inc)
        for A in algs:
            for B in algs:
                if A.ambient_dim != B.ambient_dim:
                    continue
                for eps in (EPS, 1e-7):
                    assert subspace_equals(A, B, eps) == \
                        ref_subspace_equals(A, B, eps)
                    assert A.is_subalgebra_of(B, eps) == \
                        ref_is_subalgebra_of(A, B, eps)

    def test_relative_commutant_K(self, inc):
        n = inc.C.ambient_dim
        for A in (inc.D, inc.C):
            K = _commutators(A.stack, inc.C.stack).reshape(
                A.dim * n * n, inc.C.dim)
            want = ref_commutant_K(A, inc.C)
            assert K.shape == want.shape and _close(K, want)
            rows = null_space(want) @ inc.C.basis_rows
            got = relative_commutant(A, inc.C)
            assert got.dim == rows.shape[0]

    def test_generate_star_algebra(self, inc):
        n = inc.C.ambient_dim
        rng = np.random.default_rng(8)
        generic = ref_element(inc.C, rng.standard_normal(inc.C.dim))
        for gens in (list(inc.normalizer_gens) + list(inc.D.basis),
                     [generic]):
            A = generate_star_algebra(n, gens)
            rows = ref_generate_rows(n, gens)
            assert A.dim == rows.shape[0]
            assert _close(A.basis_rows.T @ A.basis_rows.conj(),
                          rows.T @ rows.conj())

    def test_minimal_projections(self, inc):
        for A in (inc.D, inc.commutant_of_D):
            if not ref_is_abelian(A):
                continue
            got = minimal_projections(A)
            want = ref_minimal_projections(A)
            assert len(got) == len(want)
            assert all(np.array_equal(p, q) for p, q in zip(got, want))

    def test_check_star_algebra(self, inc):
        for A in _algebras(inc):
            assert ref_check_star_algebra(A) == []
        for A in _near_algebras(inc)[-3:]:
            assert ref_check_star_algebra(A)


# --- the invariant checkers flag broken algebras and states ---------------

def _broken_algebras():
    n = 3
    E = np.zeros((n, n, n, n), dtype=complex)
    for i in range(n):
        for j in range(n):
            E[i, j, i, j] = 1.0
    unit = np.eye(n, dtype=complex)
    out = [
        # not closed under products or adjoints
        FdStarAlgebra(n, (unit / np.sqrt(3), E[0, 1], E[1, 2]), unit),
        # not orthonormal
        FdStarAlgebra(n, (unit, E[0, 0]), unit),
        # the unit does not act as the identity
        FdStarAlgebra(n, (E[0, 0], E[1, 1] + E[0, 1]), E[0, 0]),
        # the unit is outside the span
        FdStarAlgebra(n, (E[0, 0], E[1, 1]), unit),
    ]
    return out


@pytest.mark.parametrize("k", range(4))
def test_check_star_algebra_violations(k):
    A = _broken_algebras()[k]
    assert ref_check_star_algebra(A)


def _broken_states(inc):
    rng = np.random.default_rng(3)
    s0 = canonical_corner_state(inc, 0)
    out = [s0,
           ModState(inc, 0, 2.0 * s0.values),
           ModState(inc, 1, s0.values),
           ModState(inc, 0, rng.standard_normal(inc.C.dim)
                    + 1j * rng.standard_normal(inc.C.dim)),
           ModState(inc, 0, s0.values + canonical_corner_state(inc, 1).values)]
    return out


@pytest.mark.parametrize("name", ["mndn2", "mndn3", "mndn4"] + [
    name for name in _ids() if name.startswith("corpus")][:2])
def test_check_mod_state_violations(name):
    inc = dict(fixtures())[name]
    lists = [ref_check_mod_state(s) for s in _broken_states(inc)]
    assert lists[0] == [] and all(lists[1:])


# --- pseudo-expectations once per inclusion --------------------------------

def _count_calls(monkeypatch, name):
    calls = []
    real = getattr(cartankit.inclusion, name)

    def counted(inc, *args):
        calls.append((id(inc),) + args)
        return real(inc, *args)
    monkeypatch.setattr(cartankit.inclusion, name, counted)
    return calls


def test_analyze_runs_mod_states_once(monkeypatch, tmp_path, capsys):
    path = tmp_path / "m3.json"
    path.write_text(json.dumps(inclusion_to_json(mndn_inclusion(3))))
    states = _count_calls(monkeypatch, "mod_states")
    corners = _count_calls(monkeypatch, "corner_algebra")
    assert cli.main(["analyze", str(path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["strongly_compatible_states"] == 3
    assert len(states) == 1
    assert sorted(i for _, i in corners) == [0, 1, 2]


@pytest.mark.parametrize("build", [lambda: mndn_inclusion(3),
                                   diagonal_scalar_inclusion])
def test_envelope_runs_mod_states_once(monkeypatch, build):
    inc = build()
    states = _count_calls(monkeypatch, "mod_states")
    corners = _count_calls(monkeypatch, "corner_algebra")
    if cartan_envelope(inc).has_unique_pseudo_expectation:
        strongly_compatible(inc)
    assert states == [(id(inc),)]
    assert corners == [(id(inc), i) for i in range(inc.n_corners)]


def test_inclusion_freed_without_cycle_collection():
    """What is cached on an Inclusion holds no reference back to it, so an
    analyzed inclusion is freed by reference counting alone."""
    gc.disable()
    try:
        inc = mndn_inclusion(3)
        pseudo_expectations(inc)
        strongly_compatible(inc)
        cert = cartan_envelope(inc)
        ref = weakref.ref(inc)
        del inc, cert
        assert ref() is None
    finally:
        gc.enable()


# --- cstar norm table -----------------------------------------------------

def _norm_twists():
    out = list(random_twist_corpus(20, seed=11))
    rng = np.random.default_rng(4)
    for k in (1, 2, 3):
        G = disjoint_union(klein_four_groupoid(prefix="k"), pair_groupoid(k))
        out.append(random_coboundary(G, rng, ("A.k",)))
    out.append(k4_nontrivial_sigma(klein_four_groupoid()))
    return out


@pytest.mark.parametrize("degree", [1, -1])
def test_delta_norms_match_reduced_norm(degree):
    """Two algorithms, the largest |entry| and an SVD per orbit block:
    they agree to 8 units in the last place."""
    for T in _norm_twists():
        R = realize(T, degree)
        want = [reduced_norm(delta(T, degree, a)) for a in T.groupoid.arrows]
        assert ulps_apart(R.delta_norms(), want).max() <= 8


def test_cstar_norm_table(tmp_path, capsys):
    """The CLI's table within 8 ulps of ``reduced_norm``: on the pair(6)
    coboundary some entries read 1.0 where the SVD gives
    0.9999999999999999."""
    path = tmp_path / "t.json"
    for T in (_norm_twists()[-2],
              random_coboundary(pair_groupoid(6), np.random.default_rng(1))):
        path.write_text(json.dumps(twist_to_json(T)))
        assert cli.main(["cstar", str(path)]) == 0
        table = json.loads(capsys.readouterr().out)["norm_table"]
        assert list(table) == sorted(T.groupoid.arrows)
        want = [reduced_norm(delta(T, 1, a)) for a in table]
        assert ulps_apart(list(table.values()), want).max() <= 8


def test_make_inclusion_malformed_generator_in_order():
    """A generator of the wrong shape is refused where it stands in the
    list: after an earlier failing generator, before a later one."""
    inc = mndn_inclusion(3)
    bad = inc.C.basis[0] + inc.normalizer_gens[1]
    assert not ref_is_normalizer(inc, bad)
    wrong = np.eye(2, dtype=complex)
    with pytest.raises(NotANormalizer):
        make_inclusion(inc.C, inc.D, [inc.normalizer_gens[0], bad, wrong])
    with pytest.raises(NonSquareMatrix):
        make_inclusion(inc.C, inc.D, [inc.normalizer_gens[0], wrong, bad])
    with pytest.raises(NonSquareMatrix):
        is_normalizer(inc, np.ones(3))


def test_make_inclusion_one_stacked_check(monkeypatch):
    """make_inclusion on M_6 (36 generators) makes no ``is_normalizer``
    call and one stacked check, whose one ``span_residuals`` is the
    containment in C: D is read through its projections, not its basis."""
    inc = mndn_inclusion(6)
    calls = []
    for name in ("is_normalizer", "_normalizer_verdicts", "span_residuals"):
        real = getattr(cartankit.inclusion, name)
        monkeypatch.setattr(cartankit.inclusion, name, functools.partial(
            lambda real, name, *a, **k: calls.append(name) or real(*a, **k),
            real, name))
    make_inclusion(inc.C, inc.D, inc.normalizer_gens)
    assert calls == ["_normalizer_verdicts", "span_residuals"]


# --- source guard ---------------------------------------------------------

#: Functions that read the corner-character kernel ``Inclusion._chars``:
#: they hold no Python loop at all, over the corners, corner pairs or
#: anything else.
CORNER_BATCHED = ["Inclusion.char", "Inclusion._chars", "_beta_targets",
                  "beta", "theta", "ThetaMap.apply", "fixed_point_ideal",
                  "fixed_set_check", "PseudoExpectation.apply",
                  "is_normalizer", "_normalizer_verdicts",
                  "Inclusion._blocks", "Inclusion._compressed_basis"]

#: The normalizer check and β: they read the blocks of v, never a product
#: with D's basis stack.
BLOCK_READERS = ["make_inclusion", "is_normalizer", "_normalizer_verdicts",
                 "_beta_targets"]

STACKED = {
    "matalg.py": ["contains_all", "is_subalgebra_of",
                  "is_abelian", "generate_star_algebra",
                  "_round_residuals", "relative_commutant",
                  "minimal_projections", "block_structure",
                  "ideal_generated_by", "_vec",
                  "_commutators", "span_residuals"],
    "inclusion.py": ["make_inclusion", "mod_state_from_density",
                     "corner_algebra",
                     "_left_kernel_subspace", "radical_ideal",
                     "strongly_compatible", "fixed_point_ideal",
                     "fixed_set_check", "_gram", "_located_state",
                     "corner_algebras", "scalar_corners", "mod_states",
                     "_density", "_functional", "_transports", "density",
                     "_projection_rows", "_is_invariant",
                     "is_compatible_state", *CORNER_BATCHED],
    "envelope.py": ["eigenfunctional", "range", "_theta_map", "_theta",
                    "_theta_on_classes", "eigen_twist", "_eig_values",
                    "theta_F", "covers_nested"],
    "reduced.py": ["delta_norms"],
}


#: Functions that keep one loop step per basis element on purpose: the
#: step is itself batched over the whole stack, and batching the loop too
#: would hold d^2 n^2 entries at once where the step holds d n^2.
PER_ELEMENT = {
    ("matalg.py", "is_abelian"):
        "commutators of one basis element with the later ones per step",
}

#: Attributes that hold an algebra's basis (or its rows).
BASIS_ATTRS = {"basis", "stack", "basis_rows"}


def _mentions_basis(expr, names):
    return any(isinstance(n, ast.Attribute) and n.attr in BASIS_ATTRS
               or isinstance(n, ast.Name) and n.id in names
               for n in ast.walk(expr))


def _is_basis(expr, names):
    return isinstance(expr, ast.Attribute) and expr.attr in BASIS_ATTRS \
        or isinstance(expr, ast.Name) and expr.id in names


def _basis_names(fn):
    """Locals bound to a basis, directly or through other such locals
    (``S = A.stack``; ``vh, S = v.conj().T, inc.D.stack``)."""
    pairs = []
    for node in ast.walk(fn):
        if not isinstance(node, ast.Assign):
            continue
        for t in node.targets:
            if isinstance(t, ast.Tuple) and isinstance(node.value, ast.Tuple) \
                    and len(t.elts) == len(node.value.elts):
                pairs += list(zip(t.elts, node.value.elts))
            else:
                pairs.append((t, node.value))
    names = set()
    while True:
        new = {n.id for t, v in pairs if _is_basis(v, names)
               for n in ast.walk(t) if isinstance(n, ast.Name)} - names
        if not new:
            return names
        names |= new


def _basis_loops(fn):
    """Loops and comprehensions of fn whose iterable is a basis."""
    names = _basis_names(fn)
    return [node for node in ast.walk(fn)
            if isinstance(node, (ast.For, ast.AsyncFor, ast.comprehension))
            and _mentions_basis(node.iter, names)]


def _functions(module):
    """Every function of the module by name, and each method also as
    ``Class.method``."""
    tree = ast.parse((SRC / module).read_text())
    fns = {fn.name: fn for fn in ast.walk(tree)
           if isinstance(fn, ast.FunctionDef)}
    fns.update((f"{cls.name}.{fn.name}", fn) for cls in ast.walk(tree)
               if isinstance(cls, ast.ClassDef) for fn in cls.body
               if isinstance(fn, ast.FunctionDef))
    return fns


class TestSourceGuard:
    @pytest.mark.parametrize("module", sorted(STACKED))
    def test_no_loop_over_basis(self, module):
        fns = _functions(module)
        for name in STACKED[module]:
            assert name in fns, name
            if (module, name) in PER_ELEMENT:
                continue
            assert not _basis_loops(fns[name]), \
                f"{module}:{name} loops over a basis"

    @pytest.mark.parametrize("name", CORNER_BATCHED)
    def test_no_loop_in_corner_kernel_readers(self, name):
        fn = _functions("inclusion.py")[name]
        assert not [node for node in ast.walk(fn) if isinstance(
            node, (ast.For, ast.While, ast.comprehension))], name

    @pytest.mark.parametrize("module,name", sorted(PER_ELEMENT))
    def test_per_element_exemptions(self, module, name):
        """Each exemption is a listed function that still has exactly one
        loop over a basis (an exemption that no longer loops is stale)."""
        assert name in STACKED[module]
        assert len(_basis_loops(_functions(module)[name])) == 1

    def test_guard_sees_stack_aliases(self):
        """The guard flags loops over ``.stack`` and locals bound to it."""
        fn = ast.parse("def f(A, v):\n"
                       "    vh, S = v.conj().T, A.stack\n"
                       "    T = S\n"
                       "    return [a for a in T] + [b for b in A.basis]\n"
                       ).body[0]
        assert len(_basis_loops(fn)) == 2
        assert not _basis_loops(ast.parse(
            "def g(A):\n    S = A.stack\n    return [0 for _ in A.min_projs]\n"
        ).body[0])

    @pytest.mark.parametrize("name", BLOCK_READERS)
    def test_normalizer_check_reads_no_stack(self, name):
        """No ``.stack`` or ``.basis`` (``np.stack`` aside) in the check."""
        fn = _functions("inclusion.py")[name]
        assert not [node for node in ast.walk(fn) if isinstance(
            node, ast.Attribute) and node.attr in ("stack", "basis")
            and ast.unparse(node.value) != "np"]

    def test_normalizer_chunk_is_gone(self):
        assert not hasattr(cartankit.inclusion, "_NORMALIZER_CHUNK")

    def test_functional_values_is_gone(self):
        assert not hasattr(cartankit.inclusion, "_functional_values")
        for path in SRC.glob("*.py"):
            assert "_functional_values" not in path.read_text(), path.name

"""Functionals on C evaluated through their densities, D' cap C and Z(C)
read off the corners (ideal supports by the range rule), and theta_F
certified on the class basis (Theta = theta_F(V) = I): each matched with
the slow paths it replaced (kept here, in ``tests/conftest.py`` or in
``tests/test_stacked_kernel.py``, as references), and the counts that
show the slow paths are gone."""

import dataclasses
import functools
import itertools
import json
import tracemalloc

import numpy as np
import pytest

import cartankit.cli
import cartankit.envelope
import cartankit.groupoid
import cartankit.inclusion
import cartankit.matalg
import cartankit.reduced
import cartankit.twist
from cartankit.envelope import (
    _theta_on_classes,
    build_cover,
    cartan_envelope,
    covers_nested,
    eigenfunctional,
)
from cartankit.errors import NoConditionalExpectation
from cartankit.groupoid import restrict_groupoid
from cartankit.inclusion import (
    PseudoExpectation,
    _density,
    _functional,
    _is_invariant,
    _left_kernel_subspace,
    _transports,
    canonical_expectation,
    mod_state_from_density,
    mod_states,
    radical_ideal,
    strongly_compatible,
)
from cartankit.matalg import (
    _vec,
    central_projections,
    generate_star_algebra,
    hs_norm,
    ideal_from_subspace,
    null_space,
    rank,
    row_span,
    span_residuals,
)
from cartankit.reduced import realize
from cartankit.serialize import inclusion_to_json
from cartankit.twist import (
    CocycleTwist,
    EquivariantFunction,
    _convolve_values,
    _involution_values,
    validate_cocycle,
)
from cartankit.weyl import _class_twist
from conftest import m2c_inclusion, mndn_inclusion, ref_essential_inclusion, \
    subspace_equals
from test_cartan_certificate import _normalizes
from test_class_twist import abelian_self_inclusion, conjugated, conjugated_m4
from test_corner_slices import (
    corpus_inclusions,
    mixed_rank_inclusion,
    non_scalar_rank_two,
    tensor_inclusion,
)
from test_envelope import diagonal_scalar_inclusion, k4_cartan_inclusion
from test_exact_corners import corner_states, m2c_state
from test_inclusion import m2_plus_c_inclusion
from test_stacked_kernel import (
    ref_eigenfunctional_cm,
    ref_range_cm,
    ref_transported,
    ref_transported_cm,
)

TOL = 1e-12


# --- references -------------------------------------------------------------

def ref_theta_homomorphism(data):
    """The all-pairs check theta_F replaced: theta(x*) = theta(x)* and
    theta(a b) = theta(a) theta(b) over C's basis, a batch of b per basis
    element a, with theta from the eigenfunctionals' coefficient rows."""
    inc, T, eigs = data.inclusion, data.twist, data.values

    def theta(mats):
        rows = mats.reshape(*mats.shape[:-2], -1)
        return rows @ inc.C.basis_rows.conj().T @ eigs.T

    basis = np.array(inc.C.basis)
    imgs = theta(basis)
    star_err = np.linalg.norm(theta(basis.conj().transpose(0, 2, 1))
                              - _involution_values(T, 1, imgs), axis=-1)
    return not (np.any(star_err > 1e-8) or any(
        np.any(np.linalg.norm(theta(a @ basis) - _convolve_values(
            T, 1, imgs[i], imgs), axis=-1) > 1e-7)
        for i, a in enumerate(basis)))


def ref_theta_generators(inc):
    """The stack S of ``ref_theta_generator_check``: D's minimal
    projections, the slices u of a spanning forest of the corner graph
    (i ~ j when p_j C p_i != 0; scalar corners) and their adjoints, 3m - 2
    of them when the graph is connected."""
    root = list(range(inc.n_corners))

    def find(i):
        while root[i] != i:
            i = root[i]
        return i
    forest = []
    for (i, j), u in inc.corner_slices.items():
        a, b = find(i), find(j)
        if a != b:
            root[a] = b
            forest.append(u)
    return np.array(list(inc.min_projs) + forest
                    + [u.conj().T for u in forest])


def ref_theta_generator_check(data, cocycle=True):
    """The generator check the class-basis certificate replaced:
    theta(x*) = theta(x)* on C's basis, sigma a 2-cocycle (skipped with
    ``cocycle=False``), and theta(s x) = theta(s) theta(x) for s in
    ``ref_theta_generators`` and x in C's basis, one convolution batch per
    s.  By induction on words in S, with the associativity the cocycle
    identity gives, that makes theta multiplicative on all of C."""
    inc, T = data.inclusion, data.twist
    basis = inc.C.stack
    imgs = data._theta(basis)
    star = data._theta(basis.conj().transpose(0, 2, 1))
    if np.any(np.linalg.norm(star - _involution_values(T, 1, imgs),
                             axis=-1) > 1e-8) or \
            (cocycle and validate_cocycle(T, 1e-8)):
        return False
    S = ref_theta_generators(inc)
    return not any(np.any(np.linalg.norm(
        data._theta(s @ basis) - _convolve_values(T, 1, g, imgs),
        axis=-1) > 1e-7) for s, g in zip(S, data._theta(S)))


def ref_envelope_fields(inc, data):
    """The certificate fields as the dense path decided them: the
    generator check plus the normalizers' images normalizing the realized
    diagonal, ker theta (a null space) against K_F (``radical_ideal``),
    the two closures on the realization, the rank of theta(C) C(F), and
    the left kernel of the canonical expectation (a null space)."""
    T, imgs = data.twist, data._theta(inc.C.stack)
    R = realize(T, 1)
    N = R.total_dim
    hom = ref_theta_generator_check(data) and _normalizes(R.diagonal, np.array(
        [R.represent(cartankit.envelope.theta_F(data, v))
         for v in inc.normalizer_gens]).reshape(-1, N, N))
    ker_rows = null_space(imgs.T) @ inc.C.basis_rows
    KF = radical_ideal(inc, data.cover.states, check_invariance=False)
    theta_imgs = [EquivariantFunction(T, 1, v) for v in imgs]
    gen = generate_star_algebra(N, [R.represent(f) for f in theta_imgs]
                                + list(R.diagonal.basis))
    d1 = generate_star_algebra(N, [R.represent(R.expectation(f))
                                   for f in theta_imgs])
    n, t = len(T.groupoid.arrows), T.groupoid.arrays
    at = t.src[:n] == np.arange(len(T.groupoid.units))[:, None]
    return {
        "regular_homomorphism": hom,
        "kernel_equals_KF": ker_rows.shape[0] == KF.dim and (
            KF.dim == 0 or bool(np.all(span_residuals(
                ker_rows, KF.basis_rows) < 1e-7))),
        "generation": subspace_equals(gen, R.algebra, 1e-7),
        "d1_generation": subspace_equals(d1, R.diagonal, 1e-7),
        "pointwise_density": rank((imgs[:, None, :] * at).reshape(-1, n)) == n,
        "theta_isomorphism": KF.dim == 0 and inc.C.dim == R.algebra.dim,
        "left_kernel_dim": _left_kernel_subspace(
            inc, canonical_expectation(inc)).dim,
        "realized_dim": R.algebra.dim,
    }


def ref_is_invariant(inc, F):
    """The per-state loop ``_is_invariant`` replaced: traciality on the
    corner, then one transported state (``ref_transported``) per state
    and transport, compared with F one state at a time."""
    reps = cartankit.inclusion._transport_reps(inc)
    for rho in F:
        A = inc.corner_algebras[rho.corner_index]
        if any(abs(rho(a.conj().T @ b) - rho(b @ a.conj().T)) > 1e-7
               for a in A.basis for b in A.basis):
            return False
        if not all(any(ref_transported(inc, rho, u).close_to(s) for s in F)
                   for (i, _), u in reps.items() if i == rho.corner_index):
            return False
    return True


def ref_is_invariant_table(inc, F):
    """The rule ``_is_invariant`` had before it compared each move only
    with the states at its target corner: traciality, then every
    transported state against every state of F, through one
    (|moves|, |F|, dim C) table of distances."""
    reps = cartankit.inclusion._transport_reps(inc)
    for rho in F:
        A = inc.corner_algebras[rho.corner_index]
        w = rho.density.T
        if np.abs(A.basis_rows.conj() @ _vec(
                A.stack @ w - w @ A.stack).T).max() > 1e-7:
            return False
    moves = [(rho.density, u) for rho in F
             for (i, _), u in reps.items() if i == rho.corner_index]
    if not moves:
        return True
    W, U = map(np.array, zip(*moves))
    moved = _transports(W, U)
    vals = _functional(inc.C, moved) / \
        np.trace(moved, axis1=1, axis2=2).real[:, None]
    known = np.array([rho.values for rho in F])
    dist = np.abs(vals[:, None] - known[None]).max(axis=2)
    return bool(np.all(np.any(dist < 1e-7, axis=1)))


def ref_ideal_support(A, mats, eps=1e-9):
    """The centre-block rule the range rule replaced: the sum of A's
    minimal central projections q with q x != 0 for some x of the ideal's
    basis."""
    blocks = [q for q in central_projections(A)
              if any(hs_norm(q @ m) >= eps for m in mats)]
    return sum(blocks) if blocks else np.zeros((A.ambient_dim,) * 2)


def ref_covers_nested(F1, F2):
    """The pairwise scan ``covers_nested`` replaced."""
    idx = []
    for rho in F1.states:
        hits = [j for j, s in enumerate(F2.states) if rho.close_to(s)]
        if len(hits) != 1:
            return None
        idx.append(hits[0])
    return idx


# --- fixtures ---------------------------------------------------------------

BUILDERS = {f"m{n}": functools.partial(mndn_inclusion, n) for n in range(2, 9)}
BUILDERS.update(m4conj=conjugated_m4,
                m2x1=functools.partial(tensor_inclusion, 2),
                m2x1_plus_c=mixed_rank_inclusion,
                m2_plus_c=m2_plus_c_inclusion,
                k4s=k4_cartan_inclusion)
#: Further inclusions the certificate is cross-checked on.
CERTIFIED = sorted(BUILDERS) + ["abelian"]


@functools.lru_cache(maxsize=None)
def build(name):
    inc = BUILDERS.get(name, abelian_self_inclusion)()
    return inc, cartan_envelope(inc)


@pytest.fixture(params=sorted(BUILDERS))
def case(request):
    return build(request.param)


def _close(a, b, tol=TOL):
    return np.max(np.abs(np.asarray(a) - np.asarray(b)), initial=0.0) < tol


# --- densities --------------------------------------------------------------

def test_density_round_trip(case):
    inc, _ = case
    rng = np.random.default_rng(0)
    vals = rng.standard_normal((3, inc.C.dim)) \
        + 1j * rng.standard_normal((3, inc.C.dim))
    W = _density(inc.C, vals)
    assert W.shape == (3,) + (inc.C.ambient_dim,) * 2
    assert _close(_functional(inc.C, W), vals)
    # f(x) = sum(W * x) is the value on the basis
    assert _close(np.sum(W[0] * inc.C.stack[1]), vals[0, 1])


def test_transports_match_coefficient_matrix(case):
    inc, _ = case
    checked = 0
    for rho in strongly_compatible(inc):
        for u in inc.corner_slices.values():
            if rho(u.conj().T @ u).real <= 1e-9:
                continue
            moved = ref_transported(inc, rho, u)
            assert _close(moved.values, ref_transported_cm(inc, rho, u))
            phi = eigenfunctional(inc, u, rho)
            assert _close(phi.values, ref_eigenfunctional_cm(inc, u, rho))
            assert _close(phi.range.values, ref_range_cm(phi))
            assert phi.range.corner_index == moved.corner_index
            checked += 1
    assert checked >= inc.n_corners


def test_invariance_is_one_transport_contraction(case, monkeypatch):
    """``_is_invariant`` moves every cover state by every transport in one
    contraction, and its verdicts are those of the per-state loop: on the
    cover, without its first state, and with a state moved off F."""
    inc, _ = case
    F = list(strongly_compatible(inc))
    i = F[-1].corner_index
    p = inc.min_projs[i]
    off = mod_state_from_density(inc, i, p / np.trace(p))
    off = dataclasses.replace(off, values=off.values * (1 + 1e-3))
    for G in (F, F[1:], F[:-1] + [off]):
        assert _is_invariant(inc, G) is ref_is_invariant(inc, G)
    assert _is_invariant(inc, F)
    assert not _is_invariant(inc, F[:-1] + [off])
    calls = []
    real = cartankit.inclusion._transports
    monkeypatch.setattr(cartankit.inclusion, "_transports",
                        lambda W, V: calls.append(V.shape) or real(W, V))
    _is_invariant(inc, F)
    assert calls == [(len(inc.corner_slices),) + (inc.C.ambient_dim,) * 2]


@pytest.mark.parametrize("name", ["m2", "m3", "m4", "m5", "m6", "m4conj",
                                  "m2x1"])
def test_invariance_at_the_target_corner(name):
    """Comparing each move with the states at its target corner only gives
    the verdicts of the whole table: on the cover, without its first
    state, with a state moved off F, and with that state added."""
    inc, _ = build(name)
    F = list(strongly_compatible(inc))
    off = dataclasses.replace(F[-1], values=F[-1].values * (1 + 1e-3))
    for G in (F, F[1:], F[:-1] + [off], F + [off]):
        assert _is_invariant(inc, G) is ref_is_invariant_table(inc, G)
    assert not _is_invariant(inc, F[:-1] + [off])


def test_invariance_at_the_target_corner_custom_covers():
    """m2c's non-scalar corner: seeded pure and mixed states, alone and in
    pairs, and the tracial state, which is invariant."""
    m2c = m2c_inclusion()
    states = corner_states(m2c, 2, seed=4)
    covers = [states[k:k + 2] for k in range(0, len(states), 2)]
    covers += [[s] for s in states] + [[m2c_state(0.5, 0.5, 0)[1]]]
    verdicts = [_is_invariant(m2c, F) for F in covers]
    assert verdicts == [ref_is_invariant_table(m2c, F) for F in covers]
    assert verdicts[-1] and not any(verdicts[:-1])


def test_invariance_holds_no_state_table():
    """On M_12 the traced peak of ``_is_invariant`` is a few arrays of
    |moves| x dim C entries, under the (|moves|, |F|, dim C) table of
    ``ref_is_invariant_table`` (|F| = 12)."""
    inc = mndn_inclusion(12)
    F = list(strongly_compatible(inc))
    assert _is_invariant(inc, F)  # fills the caches
    tracemalloc.start()
    try:
        assert _is_invariant(inc, F)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * len(inc.corner_slices) * inc.C.dim * 16


# --- D' cap C and Z(C) read off the corners ---------------------------------

@functools.lru_cache(maxsize=None)
def _corpus():
    return tuple(inc for inc, _ in corpus_inclusions())


#: The inclusions the corner-read fields and ideal supports are matched on.
FIELD_CASES = dict(BUILDERS, m2c=m2c_inclusion, d2c=diagonal_scalar_inclusion,
                   m2xm2=non_scalar_rank_two)
FIELD_CASES.update((f"corpus{k}", functools.partial(lambda k: _corpus()[k], k))
                   for k in range(12))


@functools.lru_cache(maxsize=None)
def field_case(name):
    if name in BUILDERS:
        return build(name)
    inc = FIELD_CASES[name]()
    return inc, cartan_envelope(inc)


#: Larger inclusions the conjugate hoist is also pinned on.
HOIST_CASES = dict(m12=functools.partial(mndn_inclusion, 12),
                   m6conj=lambda: conjugated(mndn_inclusion(6), 5))


@pytest.mark.parametrize("name", sorted(FIELD_CASES) + sorted(HOIST_CASES))
def test_conjugate_of_the_short_operand_is_bit_equal(name):
    """``_density`` conjugates the values and ``FdStarAlgebra.coefficients``
    the element, not C's (d, n^2) basis rows: both are bit-equal to the
    formulas that conjugated the rows on every call."""
    C = (HOIST_CASES[name]() if name in HOIST_CASES else field_case(name)[0]).C
    n, rows = C.ambient_dim, C.basis_rows
    rng = np.random.default_rng(3)
    vals = rng.standard_normal((4, C.dim)) \
        + 1j * rng.standard_normal((4, C.dim))
    assert np.array_equal(_density(C, vals),
                          (vals @ rows.conj()).reshape(4, n, n))
    assert np.array_equal(_density(C, vals[0]),
                          (vals[0] @ rows.conj()).reshape(n, n))
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    for x in (m, C.stack[-1], C.unit):
        assert np.array_equal(C.coefficients(x), rows.conj() @ x.ravel())


@pytest.mark.parametrize("name", sorted(FIELD_CASES))
def test_corner_fields_match_references(name):
    """The three essential-inclusion fields, read off the corners, are
    what the algebra D' cap C and the centre-block rank test decide."""
    inc, cert = field_case(name)
    dc = inc.commutant_of_D
    assert cert.dc_abelian is dc.is_abelian(1e-8)
    assert cert.dc_essential_over_d is ref_essential_inclusion(dc, inc.D)
    assert cert.c_essential_over_dc is ref_essential_inclusion(inc.C, dc)


def test_corner_fields_are_false_somewhere():
    """m2c's corner M_2 + C is neither abelian nor a factor; d2c's corner
    D_2 is abelian and not a factor; M_2 (x) M_2's corners are factors."""
    fields = {name: (cert.dc_abelian, cert.dc_essential_over_d)
              for name in ("m2c", "d2c", "m2xm2")
              for cert in [field_case(name)[1]]}
    assert fields == {"m2c": (False, False), "d2c": (True, False),
                      "m2xm2": (False, True)}


@pytest.mark.parametrize("name", sorted(BUILDERS) + ["m2c", "d2c"])
def test_central_projections_match_center(name):
    """Each minimal central projection q of C (``matalg.center``) is the
    support the range rule gives the ideal qC, and they sum to 1."""
    inc = {"m2c": m2c_inclusion, "d2c": diagonal_scalar_inclusion}.get(
        name, lambda: build(name)[0])()
    qs = central_projections(inc.C)
    assert _close(sum(qs), inc.C.unit, 1e-10)
    for q in qs:
        J = ideal_from_subspace(inc.C, row_span(_vec(q @ inc.C.stack)))
        assert _close(J.support_projection, q, 1e-10)


@pytest.mark.parametrize("name", ["m2c", "d2c", "m2xm2", "m2x1_plus_c",
                                  "m4", "corpus3"])
def test_analyze_commutant_dim_is_the_algebras(name, tmp_path, capsys):
    """``analyze`` adds the corners' dimensions: D' cap C's, as built."""
    inc = field_case(name)[0]
    path = tmp_path / "inclusion.json"
    path.write_text(json.dumps(inclusion_to_json(inc)))
    assert cartankit.cli.main(["analyze", str(path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["commutant_dim"] == inc.commutant_of_D.dim


def _corner_states(inc):
    """The extreme states of the abelian corners, and the vector states of
    the p_i e_k of a non-abelian corner."""
    out = []
    for c in mod_states(inc):
        p = inc.min_projs[c.corner_index]
        out += c.extreme_states or [
            mod_state_from_density(inc, c.corner_index,
                                   np.diag(np.eye(len(p))[k]) / p[k, k].real)
            for k in range(len(p)) if p[k, k].real > 1e-9]
    return out


def _extreme_state_ideals(inc):
    """K_F for every F of one to three corner states (``_corner_states``),
    invariance unchecked: left ideals of C, two-sided or not."""
    states = _corner_states(inc)
    return [radical_ideal(inc, F, check_invariance=False)
            for k in (1, 2, 3) for F in itertools.combinations(states, k)]


def _non_faithful_kernels():
    """Left kernels of non-faithful pseudo-expectations: m2c's vector
    state on its C summand (dim 4) and d2c's first point (dim 1)."""
    m2c, d2c = m2c_inclusion(), diagonal_scalar_inclusion()
    return [_left_kernel_subspace(m2c, PseudoExpectation(
                m2c, (np.diag([0, 0, 1.0]).astype(complex),))),
            _left_kernel_subspace(d2c, PseudoExpectation(
                d2c, (np.diag([1.0, 0]).astype(complex),)))]


@pytest.mark.parametrize("name", sorted(FIELD_CASES))
def test_ideal_supports_match_centre_blocks(name):
    """The range rule's support is the centre-block rule's, on every
    radical ideal of up to three corner states."""
    ideals = _extreme_state_ideals(field_case(name)[0])
    assert ideals
    for J in ideals:
        want = ref_ideal_support(J.parent, J.basis)
        assert _close(J.support_projection, want, 1e-12)


def test_non_faithful_kernel_supports_match_centre_blocks():
    L = _non_faithful_kernels()
    assert [J.dim for J in L] == [4, 1]
    for J in L:
        assert _close(J.support_projection,
                      ref_ideal_support(J.parent, J.basis), 1e-12)


@pytest.mark.parametrize("name", sorted(BUILDERS) + ["m2c", "d2c"])
def test_commutant_blocks_match_center(name):
    """D' cap C splits into the corners' central projections as
    ``matalg.center`` splits it, and D is essential in it exactly when
    there is one block per corner."""
    inc = {"m2c": m2c_inclusion, "d2c": diagonal_scalar_inclusion}.get(
        name, lambda: BUILDERS[name]())()
    dc = inc.commutant_of_D
    got, want = inc.commutant_blocks, central_projections(dc)
    assert len(got) == len(want)
    assert all(sum(_close(p, q, 1e-10) for q in want) == 1 for p in got)
    assert (len(got) == inc.n_corners) is ref_essential_inclusion(dc, inc.D)


@pytest.mark.parametrize("builder,centres", [
    (functools.partial(mndn_inclusion, 4), []), (m2c_inclusion, [5])])
def test_envelope_splits_only_non_scalar_corners(builder, centres,
                                                 monkeypatch):
    """``cartan_envelope`` takes no centre of D' cap C: scalar corners
    are their p_i, and a non-scalar corner's centre is the corner's
    own."""
    split = []
    real = cartankit.matalg.center
    monkeypatch.setattr(cartankit.matalg, "center",
                        lambda A, *args: split.append(A) or real(A, *args))
    inc = builder()
    cartan_envelope(inc)
    assert [A.dim for A in split] == centres
    assert all(A is not inc.commutant_of_D for A in split)


def test_envelope_forms_no_commutators_of_c(monkeypatch):
    """``cartan_envelope`` forms no commutator matrix at all: it takes no
    centre of C and none of D' cap C on scalar corners."""
    inc = mndn_inclusion(4)
    shapes = []
    real = cartankit.matalg._commutators
    monkeypatch.setattr(cartankit.matalg, "_commutators",
                        lambda A, B: shapes.append((len(A), len(B)))
                        or real(A, B))
    assert cartan_envelope(inc).success
    assert shapes == []


def test_one_dimensional_split_runs_no_eigh(monkeypatch):
    """The centre of a factor and a scalar corner are C 1: their one
    minimal projection is the unit, with no ``eigh``."""
    inc = mndn_inclusion(3)
    inc.commutant_of_D  # splits D, with eigh
    monkeypatch.setattr(cartankit.matalg.np.linalg, "eigh", None)
    (q,) = cartankit.matalg.central_projections(inc.C)
    assert np.array_equal(q, inc.C.unit)
    for A in inc.corner_algebras:
        assert np.array_equal(cartankit.matalg.minimal_projections(A)[0],
                              A.unit)


# --- theta_F on the class basis ---------------------------------------------

def test_generators(case):
    inc, _ = case
    S = ref_theta_generators(inc)
    keys = inc.corner_slices
    # components of the corner graph: p_i and p_j are joined by a slice
    comp = {i: min(j for j in range(inc.n_corners) if (j, i) in keys)
            for i in range(inc.n_corners)}
    c = len(set(comp.values()))
    assert len(S) == 3 * inc.n_corners - 2 * c
    assert inc.C.contains_all(S)


def test_generator_check_matches_all_pairs(case):
    inc, cert = case
    assert cert.success and cert.regular_homomorphism
    assert _theta_on_classes(cert.data) is ref_theta_generator_check(
        cert.data) is ref_theta_homomorphism(cert.data) is True


@pytest.mark.parametrize("name", CERTIFIED)
def test_certificate_matches_dense_fields(name):
    """Every field the certificate reads off Theta = I is the one the
    generator check, the null spaces and the closures on the realization
    decided; the canonical expectation's left kernel is 0; and the
    realization has dimension |arrows|, as ``cover_comparison`` reads it."""
    inc, cert = build(name)
    want = ref_envelope_fields(inc, cert.data)
    assert want.pop("left_kernel_dim") == 0
    assert want.pop("realized_dim") == len(cert.data.twist.groupoid.arrows)
    assert {k: getattr(cert, k) for k in want} == want
    assert all(want.values())
    theta = cert.data._theta(cert.data.reps)
    assert np.abs(theta - np.eye(len(theta))).max() < 1e-13
    pe = cartankit.inclusion.pseudo_expectations(inc)
    assert pe.faithful is True and pe.left_kernel.dim == 0


def test_certificate_skips_the_removed_stages(monkeypatch):
    """On M_4 and the conjugated M_4 ``cartan_envelope`` runs no null
    space, closure, convolution or triple pass, and builds no algebra on
    the realization.  The inclusion's own cached regularity (a closure of
    C's generators) is computed first: ``analyze`` shares it, and it is
    not part of the certificate."""
    calls = []

    def count(module, name):
        real = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *a, **k: calls.append(
            (module.__name__, name)) or real(*a, **k))
    for inc in (mndn_inclusion(4), conjugated_m4()):
        inc.regular
        for module in (cartankit.matalg, cartankit.groupoid, cartankit.twist,
                       cartankit.inclusion, cartankit.reduced,
                       cartankit.envelope):
            for name in ("null_space", "generate_star_algebra",
                         "_convolve_values", "validate_cocycle",
                         "_triple_checks"):
                if hasattr(module, name):
                    count(module, name)
        cert = cartan_envelope(inc)
        monkeypatch.undo()
        assert cert.success and calls == []
        R = cert.realization
        assert "algebra" not in R.__dict__ and "diagonal" not in R.__dict__


def test_class_twist_refuses_a_scaled_representative():
    """A representative scaled by 2 keeps every product proportional to
    its class, so only |mu| = 1 refuses it."""
    inc = mndn_inclusion(3)
    keys, X = inc._slice_blocks
    units = [f"x{i}" for i in range(inc.n_corners)]
    ids = [f"g{i}.{j}" for i, j in keys]
    refusal = NoConditionalExpectation("scaled")
    T, mu = _class_twist(keys, X, units, ids, refusal)
    assert np.allclose(np.abs(mu), 1.0)
    k = next(k for k, (i, j) in enumerate(keys) if i != j)
    scaled = X.copy()
    scaled[k] *= 2
    with pytest.raises(NoConditionalExpectation):
        _class_twist(keys, scaled, units, ids, refusal)


def _tampered(data, pair, factor):
    T = data.twist
    sigma = dict(T.sigma)
    sigma[pair] = sigma[pair] * factor
    return dataclasses.replace(data, twist=CocycleTwist(T.groupoid, sigma))


def _no_triple_pass(monkeypatch):
    """Make any associativity or cocycle pass fail the test."""
    def refuse(*args, **kwargs):
        raise AssertionError("a triple pass ran")
    monkeypatch.setattr(cartankit.groupoid, "_triple_checks", refuse)


@pytest.mark.parametrize("name", ["m3", "m4", "m4conj", "m2x1_plus_c",
                                  "k4s"])
def test_tampered_sigma_refused(name, monkeypatch):
    """sigma changed on one pair whose first arrow carries a forest slice:
    the references refuse it, the generator check on the convolution of
    that slice even with its cocycle test passed over, and the class-basis
    certificate refuses it with no cocycle pass."""
    inc, cert = build(name)
    data = cert.data
    G = data.twist.groupoid
    s = ref_theta_generators(inc)[inc.n_corners]
    a = G.arrows[int(np.argmax(np.abs(data._theta(s))))]
    b = next(b for b in G.arrows if G.src[a] == G.rng[b]
             and b not in G.unit_arrow.values())
    bad = _tampered(data, (a, b), np.exp(0.3j))
    assert not ref_theta_homomorphism(bad)
    assert not ref_theta_generator_check(bad)
    assert not ref_theta_generator_check(bad, cocycle=False)
    _no_triple_pass(monkeypatch)
    assert not _theta_on_classes(bad)
    assert _theta_on_classes(data)


def test_tampered_pair_off_the_generators_refused(monkeypatch):
    """A pair whose first arrow no generator's image meets: the products
    with S never read it, so the generator check needs its cocycle test
    to refuse it, while the class-basis certificate compares sigma with
    the measured ratio at every pair and needs no cocycle pass."""
    inc, cert = build("m4")
    data = cert.data
    G = data.twist.groupoid
    S = ref_theta_generators(inc)
    seen = {G.arrows[k] for k in np.flatnonzero(
        np.abs(data._theta(S)).max(axis=0) > 1e-9)}
    pair = next((a, b) for (a, b) in G.compose_table
                if a not in seen and b not in G.unit_arrow.values())
    bad = _tampered(data, pair, np.exp(0.3j))
    assert not ref_theta_homomorphism(bad)
    assert not ref_theta_generator_check(bad)
    assert validate_cocycle(bad.twist, 1e-8)
    assert ref_theta_generator_check(bad, cocycle=False)
    _no_triple_pass(monkeypatch)
    assert not _theta_on_classes(bad)


@pytest.mark.parametrize("name", ["m3", "m4conj"])
def test_swapped_classes_refused(name):
    """The eigenfunctionals of a and a^-1 swapped: Theta is still I and
    sigma still the measured ratio, but a's representative no longer
    runs from s(a) to r(a), so the slice check refuses it."""
    _, cert = build(name)
    data = cert.data
    G = data.twist.groupoid
    a = next(a for a in G.arrows if a not in G.unit_arrow.values())
    swap = np.arange(len(G.arrows))
    k, k_inv = G.arrays.index[a], G.arrays.index[G.inv[a]]
    swap[[k, k_inv]] = k_inv, k
    bad = dataclasses.replace(data, reps=data.reps[swap],
                              values=data.values[swap])
    assert not _theta_on_classes(bad)
    assert not ref_theta_homomorphism(bad)


@pytest.mark.parametrize("name", ["m3", "m4conj"])
def test_rotated_class_refused(name):
    """One class's eigenfunctional and representative rotated together
    ([z v, f] = conj(z) [v, f]): Theta is still I, the slices and the
    stored ratios still agree, and only theta(V*) against the involution
    refuses it."""
    _, cert = build(name)
    data = cert.data
    G = data.twist.groupoid
    a = next(a for a in G.arrows if a not in G.unit_arrow.values())
    k, z = G.arrays.index[a], np.exp(0.3j)
    reps, values = data.reps.copy(), data.values.copy()
    reps[k] *= z
    values[k] /= z
    bad = dataclasses.replace(data, reps=reps, values=values)
    assert not _theta_on_classes(bad)
    assert not ref_theta_homomorphism(bad)


@pytest.mark.parametrize("name", ["m3", "m4conj"])
def test_scaled_unit_class_refused(name):
    """A unit class's eigenfunctional doubled: theta(V*) still matches the
    involution and the slices and ratios are untouched, and only Theta = I
    refuses it."""
    _, cert = build(name)
    data = cert.data
    G = data.twist.groupoid
    values = data.values.copy()
    values[G.arrays.index[next(iter(G.unit_arrow.values()))]] *= 2
    bad = dataclasses.replace(data, values=values)
    assert not _theta_on_classes(bad)
    assert not ref_theta_homomorphism(bad)


def test_classes_short_of_dim_c_refused():
    """The twist cut down to the classes between two of M_3's three
    corners: every entry check holds on those arrows, and only |arrows| =
    dim C refuses them, as they span a proper part of C."""
    _, cert = build("m3")
    data = cert.data
    G, T = data.twist.groupoid, data.twist
    keep = {f for f in G.units if f != G.units[-1]}
    H = restrict_groupoid(G, [a for a in G.arrows
                              if G.src[a] in keep and G.rng[a] in keep])
    small = CocycleTwist(H, {p: T.sigma[p] for p in H.compose_table})
    assert len(H.arrows) == 4 < data.inclusion.C.dim
    assert not _theta_on_classes(dataclasses.replace(data, twist=small))


# --- nested covers by corner ------------------------------------------------

def _covers():
    inc = diagonal_scalar_inclusion()
    s1 = mod_state_from_density(inc, 0, np.diag([1.0, 0]))
    s2 = mod_state_from_density(inc, 0, np.diag([0, 1.0]))
    s3 = mod_state_from_density(inc, 0, np.diag([0.5, 0.5]))
    out = [build_cover(inc, "custom", F=F)
           for F in ([s1], [s2], [s1, s2], [s2, s1])]
    # hand-built: a third (incompatible) state, and a state held twice
    out.append(dataclasses.replace(out[2], states=(s1, s2, s3)))
    out.append(dataclasses.replace(out[2], states=(s1, s1, s2)))
    m3 = mndn_inclusion(3)
    out += [build_cover(m3), build_cover(m3, "custom", F=list(
        strongly_compatible(m3))[::-1])]
    return out


def test_covers_nested_matches_pairwise_scan():
    covers = _covers()
    seen = set()
    for F1 in covers:
        for F2 in covers:
            if F1.inclusion is not F2.inclusion:
                continue
            got = covers_nested(F1, F2)
            assert got == ref_covers_nested(F1, F2)
            seen.add("none" if got is None else "map")
    assert seen == {"none", "map"}
    assert covers_nested(covers[0], covers[5]) is None  # two matches
    assert covers_nested(covers[3], covers[2]) == [1, 0]
    assert covers_nested(covers[2], covers[4]) == [0, 1]
    assert covers_nested(covers[4], covers[2]) is None  # no match

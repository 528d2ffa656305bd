"""The eigenfunctional twist built by index, against the class search it
replaced; the refusals of covers and densities that do not give a twist;
and the emission cut of cocycle entries."""

import inspect
import json

import numpy as np
import pytest

import cartankit.envelope
import cartankit.weyl
from cartankit import cli
from cartankit.envelope import (
    CompatibleCover,
    EigenTwistData,
    build_cover,
    eig_inverse,
    eig_product,
    eigen_twist,
    eigenfunctional,
)
from cartankit.errors import CoverNotCertified, NotCovering, SourceVanishes
from cartankit.groupoid import build_groupoid, pair_groupoid
from cartankit.inclusion import (
    _transport_reps,
    canonical_corner_state,
    make_inclusion,
    mod_state_from_density,
)
from cartankit.matalg import generate_star_algebra
from cartankit.reduced import groupoid_inclusion, realize
from cartankit.serialize import (
    inclusion_to_json,
    twist_from_json,
    twist_to_json,
)
from cartankit.twist import (
    COCYCLE_TOL,
    CocycleTwist,
    validate_twist,
)
from cartankit.weyl import _canonical_phases, weyl_twist
from conftest import E, coboundary_twist, m2c_inclusion, mndn_inclusion, \
    random_twist_corpus, unequal_rank_inclusion
from test_envelope import diagonal_scalar_inclusion, k4_cartan_inclusion


def _state_index(cover, s):
    for j, rho in enumerate(cover.states):
        if s.close_to(rho):
            return j
    return None


def ref_eigen_twist(inc, cover):
    """The class search ``eigen_twist`` replaced: ranges, inverses and
    products found by scanning the classes with ``phase_class_equal``,
    one ``eig_product`` per composable pair.  The per-class
    eigenfunctionals are stacked into ``reps`` (v p_i) and ``values`` in
    the groupoid's arrow order."""
    F = cover.states
    unit_of_state = {j: f"f{j}" for j in range(len(F))}
    classes = []
    reps = _transport_reps(inc)
    for j, f in enumerate(F):
        for (i, k), u in reps.items():
            if i != f.corner_index:
                continue
            v = inc.C.unit if k == i else u
            phi = eigenfunctional(inc, v * _canonical_phases(v[None])[0], f)
            r_idx = j if k == i else _state_index(cover, phi.range)
            if r_idx is None:
                raise CoverNotCertified("cover is not invariant")
            classes.append((j, r_idx, phi))

    def sort_key(entry):
        s, r, phi = entry
        rounded = np.round(phi.values, 6)
        return (s, r) + tuple(x for z in rounded for x in (z.real, z.imag))

    classes.sort(key=sort_key)
    arrow_ids = [f"a{k}" for k in range(len(classes))]
    arrow_eigs = {aid: phi for aid, (_, _, phi) in zip(arrow_ids, classes)}
    src = {aid: unit_of_state[s] for aid, (s, _, _) in zip(arrow_ids, classes)}
    rng = {aid: unit_of_state[r] for aid, (_, r, _) in zip(arrow_ids, classes)}

    def find_class(phi):
        for aid, c in arrow_eigs.items():
            if phi.phase_class_equal(c):
                lam = complex(np.vdot(c.values, phi.values)
                              / np.vdot(c.values, c.values))
                return aid, lam / abs(lam)
        return None, None

    inv = {aid: find_class(eig_inverse(phi))[0]
           for aid, phi in arrow_eigs.items()}
    pairs, sigma = [], {}
    for a, pa in arrow_eigs.items():
        for b, pb in arrow_eigs.items():
            if src[a] != rng[b]:
                continue
            cid, lam = find_class(eig_product(pa, pb))
            pairs.append((a, b, cid))
            sigma[(a, b)] = np.conj(lam)
    specs = [(aid, src[aid], rng[aid], inv[aid]) for aid in arrow_ids]
    unit_arrows = {unit_of_state[s]: aid
                   for aid, (s, r, _) in zip(arrow_ids, classes) if s == r}
    G = build_groupoid(list(unit_of_state.values()), specs, pairs,
                       unit_arrows)
    T = CocycleTwist(groupoid=G, sigma=sigma)
    n, P = inc.C.ambient_dim, np.array(inc.min_projs)
    eigs = [arrow_eigs[a] for a in G.arrows]
    reps = np.reshape([phi.v @ P[phi.source.corner_index] for phi in eigs],
                      (-1, n, n))
    values = np.reshape([phi.values for phi in eigs], (-1, inc.C.dim))
    return EigenTwistData(inclusion=inc, cover=cover, twist=T, reps=reps,
                          values=values, unit_of_state=unit_of_state,
                          ratios=T.sigma_vector)


def conjugated(inc, seed):
    """inc moved by a seeded random unitary of its ambient M_n."""
    n = inc.C.ambient_dim
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((n, n))
                        + 1j * rng.standard_normal((n, n)))

    def conj(xs):
        return [q @ x @ q.conj().T for x in xs]
    return make_inclusion(generate_star_algebra(n, conj(inc.C.basis)),
                          generate_star_algebra(n, conj(inc.D.basis)),
                          conj(inc.normalizer_gens))


def conjugated_m4():
    return conjugated(mndn_inclusion(4), 17)


def tensor_inclusion(k, r):
    """M_k (x) 1_r over D_k (x) 1_r: scalar corners of rank r."""
    units = [np.kron(E(i, j, k), np.eye(r)) for i in range(k)
             for j in range(k)]
    return make_inclusion(generate_star_algebra(k * r, units),
                          generate_star_algebra(k * r, units[::k + 1]),
                          units)


def abelian_self_inclusion():
    D = generate_star_algebra(2, [E(0, 0, 2), E(1, 1, 2)])
    return make_inclusion(D, D, list(D.basis))


def _nested_covers():
    inc = diagonal_scalar_inclusion()
    s1 = mod_state_from_density(inc, 0, np.diag([1.0, 0]))
    s2 = mod_state_from_density(inc, 0, np.diag([0, 1.0]))
    return [(inc, build_cover(inc, "custom", F=F)) for F in ([s1], [s1, s2])]


def crosscheck_cases():
    cases = {f"m{n}": mndn_inclusion(n) for n in range(2, 7)}
    cases.update(m4conj=conjugated_m4(), k4s=k4_cartan_inclusion(),
                 abelian=abelian_self_inclusion())
    out = [pytest.param(inc, None, id=name) for name, inc in cases.items()]
    out += [pytest.param(inc, F, id=f"d2c-F{len(F.states)}")
            for inc, F in _nested_covers()]
    principal = [T for T in random_twist_corpus(30, seed=31)
                 if all(T.groupoid.src[a] != T.groupoid.rng[a]
                        or a in T.groupoid.unit_arrow.values()
                        for a in T.groupoid.arrows)]
    out += [pytest.param(groupoid_inclusion(realize(T)), None,
                         id=f"corpus{k}") for k, T in enumerate(principal)]
    return out


@pytest.mark.parametrize("inc, cover", crosscheck_cases())
def test_matches_class_search(inc, cover):
    cover = cover or build_cover(inc)
    got, want = eigen_twist(inc, cover), ref_eigen_twist(inc, cover)
    G, H = got.twist.groupoid, want.twist.groupoid
    assert (G.units, G.arrows, G.src, G.rng, G.inv, G.compose_table,
            G.unit_arrow) == (H.units, H.arrows, H.src, H.rng, H.inv,
                              H.compose_table, H.unit_arrow)
    assert got.unit_of_state == want.unit_of_state
    assert validate_twist(got.twist) == []
    s, t = got.twist.sigma_vector, want.twist.sigma_vector
    assert np.max(np.abs(s - t), initial=0.0) <= 1e-12
    assert got.values.shape == want.values.shape
    assert np.max(np.abs(got.values - want.values), initial=0.0) <= 1e-9
    assert np.max(np.abs(got.reps - want.reps), initial=0.0) <= 1e-12


def _row_cases():
    out = [pytest.param(mndn_inclusion(n), None, id=f"m{n}")
           for n in range(2, 9)]
    out += [pytest.param(conjugated_m4(), None, id="m4conj"),
            pytest.param(tensor_inclusion(2, 2), None, id="m2x1_2")]
    m2c = m2c_inclusion()
    out.append(pytest.param(m2c, build_cover(m2c, "custom", F=[
        mod_state_from_density(m2c, 0, np.diag([0, 0, 1.0]))]),
        id="m2c-lambda"))
    out += [pytest.param(inc, F, id=f"d2c-F{len(F.states)}")
            for inc, F in _nested_covers()]
    m3 = mndn_inclusion(3)
    out.append(pytest.param(m3, CompatibleCover(inclusion=m3, states=(),
                                                certified=True), id="empty"))
    return out


@pytest.mark.parametrize("inc, cover", _row_cases())
def test_rows_are_the_single_class_eigenfunctionals(inc, cover):
    """Row g of ``values`` is ``eigenfunctional(inc, v, f)`` for arrow g's
    class: v its representative ``reps[g]`` = v p_i and f its source
    state; the batched and the single-class paths share one formula."""
    cover = cover or build_cover(inc)
    data = eigen_twist(inc, cover)
    G = data.twist.groupoid
    state = {u: j for j, u in data.unit_of_state.items()}
    n, d = inc.C.ambient_dim, inc.C.dim
    assert data.reps.shape == (len(G.arrows), n, n)
    assert data.values.shape == (len(G.arrows), d)
    for g, a in enumerate(G.arrows):
        phi = eigenfunctional(inc, data.reps[g], cover.states[state[G.src[a]]])
        assert np.max(np.abs(phi.values - data.values[g])) <= 1e-12


def test_corpus_has_principal_members():
    ids = [p.id for p in crosscheck_cases()]
    assert sum(1 for name in ids if name.startswith("corpus")) >= 5


def test_one_class_product_helper():
    """Both twists read their tables and cocycle from ``_class_twist``;
    the eigenfunctional twist searches no class and pins its classes by
    the Weyl rule alone."""
    assert cartankit.envelope._class_twist is cartankit.weyl._class_twist
    for name in ("find_class", "_state_index", "_canonicalize"):
        assert not hasattr(cartankit.envelope, name)
    for fn in (eigen_twist, cartankit.envelope.cover_comparison):
        source = inspect.getsource(fn)
        for name in ("phase_class_equal", "eig_product", "close_to"):
            assert name not in source
    assert "_class_twist(" in inspect.getsource(cartankit.weyl.weyl_twist)
    assert "_class_twist(" in inspect.getsource(eigen_twist)


# --- the eigenfunctional twist's classes are the Weyl twist's ---------------

def _weyl_sigma_on_pairs(data, W):
    """The Weyl twist's sigma at the image of each eigenfunctional-twist
    pair under the corner-pair map (``envelope_uniqueness_crosscheck``)."""
    GA, GB = data.twist.groupoid, W.twist.groupoid
    corner = {unit: data.cover.states[s].corner_index
              for s, unit in data.unit_of_state.items()}
    perm = np.array([GB.arrays.index[f"g{corner[GA.src[a]]}."
                                     f"{corner[GA.rng[a]]}"]
                     for a in GA.arrows], dtype=np.intp)
    ta, tb = GA.arrays, GB.arrays
    p = tb.pair_at[perm[ta.a], perm[ta.b]]
    assert np.all(p >= 0) and len(p) == len(tb.pairs)
    return W.twist.sigma_vector[p]


def weyl_cases():
    out = [pytest.param(p.values[0], id=p.id) for p in crosscheck_cases()
           if p.values[0].is_masa]
    for k in (2, 3):
        inc = tensor_inclusion(k, 2)
        out += [pytest.param(inc, id=f"m{k}x1_2"),
                pytest.param(conjugated(inc, 3), id=f"m{k}x1_2conj")]
    return out


@pytest.mark.parametrize("inc", weyl_cases())
def test_sigma_is_the_weyl_sigma(inc):
    data = eigen_twist(inc, build_cover(inc))
    got = data.twist.sigma_vector
    assert np.max(np.abs(got - _weyl_sigma_on_pairs(data, weyl_twist(inc))),
                  initial=0.0) <= 1e-12


MNDN = [pytest.param(mndn_inclusion, n, id=f"m{n}") for n in range(2, 9)]
MNDN.append(pytest.param(lambda _: conjugated_m4(), 4, id="m4conj"))


@pytest.mark.parametrize("build, n", MNDN)
def test_rank_one_corners_give_trivial_sigma(build, n, tmp_path, capsys):
    """A pinned slice on a rank-one corner is q_k q_i* with each q's first
    nonzero coordinate positive, so pinned slices compose exactly."""
    inc = build(n)
    data = eigen_twist(inc, build_cover(inc))
    assert np.max(np.abs(data.twist.sigma_vector - 1.0)) <= COCYCLE_TOL
    path = tmp_path / "inc.json"
    path.write_text(json.dumps(inclusion_to_json(inc)))
    assert cli.main(["envelope", str(path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["success"] and report["twist"]["cocycle"] == []


def test_class_twist_sees_rank_blocks(monkeypatch):
    """Both twists hand ``_class_twist`` r x r blocks, r = max rank p_i,
    one per class."""
    seen, real = [], cartankit.weyl._class_twist

    def spy(keys, X, *rest):
        seen.append((len(keys), X.shape))
        return real(keys, X, *rest)

    monkeypatch.setattr(cartankit.envelope, "_class_twist", spy)
    monkeypatch.setattr(cartankit.weyl, "_class_twist", spy)
    for inc in (mndn_inclusion(3), tensor_inclusion(2, 2),
                conjugated(tensor_inclusion(3, 2), 3)):
        r = int(inc._ranks.max())
        seen.clear()
        weyl_twist(inc)
        eigen_twist(inc, build_cover(inc))
        assert [shape for _, shape in seen] == [(k, r, r) for k, _ in seen]
        assert len(seen) == 2 and seen[0][0] == seen[1][0] == inc.C.dim


# --- covers and densities that give no twist -------------------------------

def test_repeated_state_refused():
    inc = mndn_inclusion(3)
    s = [canonical_corner_state(inc, i) for i in range(3)]
    with pytest.raises(NotCovering, match="repeats"):
        build_cover(inc, "custom", F=[s[0], s[0], s[1], s[2]])
    assert len(build_cover(inc, "custom", F=s).states) == 3


def test_hand_built_cover_missing_a_corner():
    inc = mndn_inclusion(3)
    states = tuple(canonical_corner_state(inc, i) for i in range(2))
    with pytest.raises(CoverNotCertified):
        eigen_twist(inc, CompatibleCover(inclusion=inc, states=states,
                                         certified=True))
    empty = eigen_twist(inc, CompatibleCover(inclusion=inc, states=(),
                                             certified=True))
    assert empty.twist.groupoid.arrows == ()


def test_hand_built_cover_is_not_certified(m2c):
    """Only ``build_cover`` certifies: a hand-built cover holding the
    incompatible pure state x -> x[0, 0] of m2c is refused, where it used
    to give a one-arrow twist."""
    rho = mod_state_from_density(m2c, 0, np.diag([1.0, 0, 0]))
    with pytest.raises(NotCovering):
        build_cover(m2c, "custom", F=[rho])
    cover = CompatibleCover(inclusion=m2c, states=(rho,))
    assert not cover.certified
    with pytest.raises(CoverNotCertified):
        eigen_twist(m2c, cover)
    assert build_cover(m2c, "custom", F=[mod_state_from_density(
        m2c, 0, np.diag([0, 0, 1.0]))]).certified


def test_vanishing_density_refused():
    inc = unequal_rank_inclusion()
    p0 = inc.min_projs[0]
    assert np.allclose(p0, np.diag([0, 0, 1.0]))
    with pytest.raises(SourceVanishes):
        mod_state_from_density(inc, 0, np.diag([1.0, 0, 0]))
    rho = mod_state_from_density(inc, 0, np.diag([0.5, 0, 0.5]))
    assert abs(rho(inc.C.unit) - 0.5) < 1e-12


# --- emission of cocycle entries -------------------------------------------

@pytest.mark.parametrize("t, listed", [(1e-13, False), (1e-11, True)])
def test_cocycle_entries_cut_at_cocycle_tol(t, listed):
    G = pair_groupoid(2)
    lam = {a: 1.0 + 0j for a in G.arrows}
    lam[next(a for a in G.arrows if G.src[a] != G.rng[a])] = np.exp(1j * t)
    T = coboundary_twist(G, lam)
    near = [p for p, z in T.sigma.items() if abs(z - 1.0) > 0.5 * t]
    assert near and all(abs(T.sigma[p] - 1.0) < 2 * t for p in near)
    entries = twist_to_json(T)["cocycle"]
    assert len(entries) == (len(near) if listed else 0)
    back = twist_from_json(json.loads(json.dumps(twist_to_json(T))))
    assert validate_twist(back) == []
    assert max(abs(back.sigma[p] - z) for p, z in T.sigma.items()) \
        <= COCYCLE_TOL


def test_literal_entry_at_one_plus_epsilon():
    T = coboundary_twist(pair_groupoid(2), {a: 1.0 + 0j for a in
                                            pair_groupoid(2).arrows})
    sigma = dict(T.sigma)
    p, q = sorted(sigma)[:2]
    sigma[p], sigma[q] = 1.0 + 1e-13, 1.0 + 1e-11
    listed = twist_to_json(CocycleTwist(T.groupoid, sigma))["cocycle"]
    assert [tuple(e[0]) for e in listed] == [q]

"""Acceptance gate: eleven criteria, one test and one PASS line each.

Tolerances are pinned per criterion.  Criterion 5 uses an independent
brute-force oracle (structure-constant left-regular representation and
central-element eigenvalue multiplicities) computed without the library's
realization machinery.
"""

import time

import numpy as np
import pytest

from cartankit.envelope import (
    build_cover,
    cartan_envelope,
    cover_comparison,
    eigenfunctional,
    envelope_uniqueness_crosscheck,
)
from cartankit.groupoid import (
    disjoint_union,
    find_isomorphism,
    klein_four_groupoid,
    pair_groupoid,
)
from cartankit.inclusion import (
    is_compatible_state,
    make_inclusion,
    mod_state_from_density,
    pseudo_expectations,
    strongly_compatible,
)
from cartankit.matalg import (
    block_structure,
    generate_star_algebra,
    hs_norm,
    operator_norm,
)
from cartankit.reduced import (
    groupoid_inclusion,
    is_cartan_pair,
    realize,
    reduced_norm,
)
from cartankit.twist import (
    EquivariantFunction,
    conjugate_twist,
    convolve,
    delta,
    involution,
    restrict_twist,
    transpose,
    trivial_twist,
)
from cartankit.weyl import weyl_twist
from conftest import (
    E,
    k4_nontrivial_sigma,
    m2c_inclusion,
    mndn_inclusion,
    random_coboundary,
    random_function,
    random_twist_corpus,
    ref_structure_constants as structure_constants,
)

TOL_LAW = 1e-8        # criteria 1-2 relative law tolerance
TOL_EXACT = 1e-10     # entrywise identities (criteria 2-4, 6)
TOL_RESID = 1e-9      # homomorphism residuals (criteria 9-11)


def k4_cartan_inclusion():
    T = k4_nontrivial_sigma(klein_four_groupoid())
    R = realize(T)
    deltas = [R.represent(delta(T, 1, a)) for a in T.groupoid.arrows]
    D = generate_star_algebra(R.total_dim,
                              [R.represent(delta(T, 1, "k10"))])
    return make_inclusion(R.algebra, D, deltas)


def cartan_fixture_inclusions():
    out = [mndn_inclusion(2), mndn_inclusion(3), k4_cartan_inclusion(),
           groupoid_inclusion(realize(trivial_twist(pair_groupoid(2))))]
    D = generate_star_algebra(2, [E(0, 0, 2), E(1, 1, 2)])
    out.append(make_inclusion(D, D, list(D.basis)))
    return out


def test_acceptance_01_convolution_law_suite():
    start = time.monotonic()
    rng = np.random.default_rng(101)
    for T in random_twist_corpus(200, seed=101):
        f = random_function(T, 1, rng)
        g = random_function(T, 1, rng)
        h = random_function(T, 1, rng)
        scale = max(1.0, reduced_norm(f) * reduced_norm(g))
        lhs = convolve(convolve(f, g), h).values
        rhs = convolve(f, convolve(g, h)).values
        assert np.max(np.abs(lhs - rhs)) < TOL_LAW * scale * \
            max(1.0, reduced_norm(h))
        anti = involution(convolve(f, g)).values \
            - convolve(involution(g), involution(f)).values
        assert np.max(np.abs(anti)) < TOL_LAW * scale
        nf = reduced_norm(f)
        assert abs(reduced_norm(convolve(involution(f), f)) - nf ** 2) \
            < TOL_LAW * max(1.0, nf ** 2)
    assert time.monotonic() - start < 60.0
    print("ACCEPTANCE 1: PASS")


def test_acceptance_02_transpose_anti_isomorphism():
    rng = np.random.default_rng(102)
    for T in random_twist_corpus(40, seed=102):
        for k in (1, -1):
            f = random_function(T, k, rng)
            g = random_function(T, k, rng)
            assert abs(reduced_norm(transpose(f)) - reduced_norm(f)) \
                < TOL_LAW * max(1.0, reduced_norm(f))
            anti = transpose(convolve(f, g)).values \
                - convolve(transpose(g), transpose(f)).values
            assert np.max(np.abs(anti)) < 1e-10 * max(
                1.0, reduced_norm(f) * reduced_norm(g))
            star = transpose(involution(f)).values \
                - involution(transpose(f)).values
            assert np.max(np.abs(star)) < 1e-10
        assert np.array_equal(structure_constants(T, 1),
                              structure_constants(conjugate_twist(T), -1))
        assert np.array_equal(structure_constants(T, -1),
                              structure_constants(conjugate_twist(T), 1))
    print("ACCEPTANCE 2: PASS")


def test_acceptance_03_expectation_faithful():
    rng = np.random.default_rng(103)
    for T in random_twist_corpus(40, seed=103):
        R = realize(T)
        f = random_function(T, 1, rng)
        Ef = R.expectation(f)
        assert np.max(np.abs(R.expectation(Ef).values - Ef.values)) \
            < TOL_EXACT * max(1.0, float(np.abs(f.values).max()))
        pos = R.expectation(convolve(involution(f), f))
        idx = T.arrow_index
        unit_vals = [pos[e] for e in T.groupoid.unit_arrow.values()]
        assert all(abs(z.imag) < 1e-10 and z.real > -1e-10
                   for z in unit_vals)
        total = float(np.real(sum(unit_vals)))
        l2 = float(np.sum(np.abs(f.values) ** 2))
        # E(f* f) = 0 would force f = 0: the trace of E(f* f) IS the l2 mass
        assert abs(total - l2) < 1e-8 * max(1.0, l2)
        if total < 1e-18:
            assert reduced_norm(f) < 1e-9
    print("ACCEPTANCE 3: PASS")


def test_acceptance_04_ceno_and_twistquot():
    rng = np.random.default_rng(104)
    # Lemma ceno pointwise identity over the corpus
    for T in random_twist_corpus(30, seed=104):
        R = realize(T)
        f = random_function(T, 1, rng)
        ff = R.expectation(convolve(involution(f), f))
        for x, e in T.groupoid.unit_arrow.items():
            want = sum(abs(f[a]) ** 2
                       for a in T.groupoid.arrows_with_source(x))
            assert abs(ff[e] - want) < TOL_EXACT * max(1.0, want)
    # twistquot: restriction to a factorization-closed subgroupoid
    for seed in range(5):
        srng = np.random.default_rng(200 + seed)
        U = disjoint_union(pair_groupoid(2 + seed % 2),
                           klein_four_groupoid(prefix="k"))
        T = random_coboundary(U, srng, ("B.k",))
        H = [a for a in U.arrows if a.startswith("B.")]
        TH = restrict_twist(T, H)
        idx = [T.arrow_index[a] for a in TH.groupoid.arrows]
        # surjectivity by dimension: restriction hits every coordinate
        assert len(idx) == len(TH.groupoid.arrows)
        for _ in range(3):
            f = random_function(T, 1, srng)
            g = random_function(T, 1, srng)
            fh = EquivariantFunction(TH, 1, f.values[idx])
            gh = EquivariantFunction(TH, 1, g.values[idx])
            assert reduced_norm(fh) <= reduced_norm(f) + 1e-10
            assert np.max(np.abs(convolve(f, g).values[idx]
                                 - convolve(fh, gh).values)) < 1e-10 * max(
                1.0, reduced_norm(f) * reduced_norm(g))
    print("ACCEPTANCE 4: PASS")


def _oracle_block_structure(T):
    """Brute-force Wedderburn blocks from raw structure constants.

    Builds the left-regular matrices of the convolution algebra directly
    from the compose table, finds the commutant-defined center, and reads
    block sizes off the eigenvalue multiplicities of a generic hermitian
    central element: in the left-regular representation a central minimal
    idempotent of a d x d block carries multiplicity d^2.
    """
    G = T.groupoid
    arrows = G.arrows
    n = len(arrows)
    idx = {a: i for i, a in enumerate(arrows)}
    L = np.zeros((n, n, n), dtype=complex)  # L[i] = left mult by delta_i
    for (a, b), ab in G.compose_table.items():
        L[idx[a], idx[ab], idx[b]] += T.sigma[(a, b)]
    # center: z = sum c_j L[j] commuting with every L[i]
    cols = []
    for j in range(n):
        cols.append(np.concatenate(
            [(L[j] @ L[i] - L[i] @ L[j]).ravel() for i in range(n)]))
    K = np.array(cols).T
    u, s, vh = np.linalg.svd(K)
    scale = max(s[0], 1.0) if len(s) else 1.0
    nmask = np.concatenate([s, np.zeros(vh.shape[0] - len(s))]) \
        <= 1e-10 * scale
    central = [sum(c[j] * L[j] for j in range(n)) for c in vh[nmask].conj()]
    rng = np.random.default_rng(505)
    z = sum(w * c for w, c in zip(
        rng.standard_normal(len(central))
        + 1j * rng.standard_normal(len(central)), central))
    z = z + z.conj().T
    evals = np.sort(np.linalg.eigvalsh(z))
    clusters = []
    for ev in evals:
        if clusters and abs(ev - clusters[-1][0] / clusters[-1][1]) < 1e-6:
            clusters[-1] = (clusters[-1][0] + ev, clusters[-1][1] + 1)
        else:
            clusters.append((ev, 1))
    sizes = sorted(int(round(np.sqrt(m))) for _, m in clusters)
    assert all(abs(np.sqrt(m) - round(np.sqrt(m))) < 1e-9
               for _, m in clusters)
    return tuple(sizes)


def test_acceptance_05_concrete_realizations():
    cases = [
        (trivial_twist(pair_groupoid(2)), (2,)),
        (trivial_twist(klein_four_groupoid()), (1, 1, 1, 1)),
        (k4_nontrivial_sigma(klein_four_groupoid()), (2,)),
    ]
    for T, expected in cases:
        oracle = _oracle_block_structure(T)
        assert oracle == expected
        assert block_structure(realize(T).algebra) == oracle
    print("ACCEPTANCE 5: PASS")


def test_acceptance_06_pseudo_expectation_theory():
    rng = np.random.default_rng(106)
    for trial in range(50):
        n = int(rng.integers(2, 7))
        # random block-diagonal model with the diagonal MASA
        cuts = sorted(rng.choice(range(1, n), size=int(rng.integers(0, n)),
                                 replace=False)) if n > 1 else []
        bounds = [0] + list(cuts) + [n]
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        u, _ = np.linalg.qr(g)
        gens = []
        for lo, hi in zip(bounds, bounds[1:]):
            for i in range(lo, hi):
                for j in range(lo, hi):
                    gens.append(u @ E(i, j, n) @ u.conj().T)
        C = generate_star_algebra(n, gens)
        D = generate_star_algebra(
            n, [u @ E(i, i, n) @ u.conj().T for i in range(n)])
        inc = make_inclusion(C, D, gens)
        assert inc.is_masa
        pe = pseudo_expectations(inc)
        assert pe.unique and pe.faithful
        x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        x = sum(c * b for c, b in zip(C.coefficients(x), C.basis))
        want = sum(p @ x @ p for p in inc.min_projs)
        assert np.max(np.abs(pe.expectation.apply(x) - want)) < TOL_EXACT
    m2c = m2c_inclusion()
    pe = pseudo_expectations(m2c)
    assert not pe.unique
    assert pe.corners[0].algebra.dim == m2c.C.dim  # full state space
    print("ACCEPTANCE 6: PASS")


def test_acceptance_07_compatible_states_and_minimality():
    m2c = m2c_inclusion()
    lam = mod_state_from_density(m2c, 0, np.diag([0, 0, 1.0]))
    ok, _ = is_compatible_state(m2c, lam, word_bound=4)
    assert ok
    # minimality of the strongly compatible states against certified covers
    for inc in cartan_fixture_inclusions():
        S = strongly_compatible(inc)
        for cover in (build_cover(inc),
                      build_cover(inc, "custom", F=S)):
            for s in S:
                assert any(s.close_to(rho) for rho in cover.states)
    print("ACCEPTANCE 7: PASS")


def test_acceptance_08_weyl_round_trip():
    start = time.monotonic()
    rng = np.random.default_rng(108)
    corpus = [trivial_twist(pair_groupoid(1)),
              trivial_twist(pair_groupoid(2)),
              trivial_twist(pair_groupoid(3)),
              random_coboundary(pair_groupoid(2), rng),
              random_coboundary(pair_groupoid(3), rng),
              random_coboundary(
                  disjoint_union(pair_groupoid(2), pair_groupoid(2)), rng),
              random_coboundary(
                  disjoint_union(pair_groupoid(1), pair_groupoid(3)), rng)]
    for T in corpus:
        R = realize(T)
        assert is_cartan_pair(R).is_cartan
        W = weyl_twist(groupoid_inclusion(R))
        assert len(W.twist.groupoid.arrows) <= 12
        assert find_isomorphism(W.twist.groupoid, T.groupoid) is not None
        assert block_structure(realize(W.twist).algebra) == \
            block_structure(R.algebra)
    assert time.monotonic() - start < 120.0
    print("ACCEPTANCE 8: PASS")


def test_acceptance_09_cefform_battery():
    # the explicit matrix-entry eigenfunctional on M2/D2
    m2 = mndn_inclusion(2)
    j2 = min(range(2), key=lambda i: hs_norm(m2.min_projs[i] - E(1, 1, 2)))
    f2 = mod_state_from_density(m2, j2, m2.min_projs[j2])
    phi12 = eigenfunctional(m2, E(0, 1, 2), f2)
    rng = np.random.default_rng(109)
    A = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    assert abs(phi12(A) - A[0, 1]) < TOL_EXACT

    for inc in cartan_fixture_inclusions():
        cover = build_cover(inc)
        eigs = []
        for v in inc.normalizer_gens:
            for f in cover.states:
                wt = complex(f(v.conj().T @ v))
                if wt.real <= 1e-9 or abs(wt.imag) > 1e-9:
                    continue
                eigs.append(eigenfunctional(inc, v, f))
        assert eigs
        for phi in eigs:
            v = phi.v
            # (a)(ii) eigen-relation
            for x in inc.C.basis:
                lhs = phi.source(v.conj().T @ x @ v)
                rhs = phi.source(v.conj().T @ v) * phi.range(x)
                assert abs(lhs - rhs) < TOL_RESID
            # (b) reconstruction from any w with phi(w) > 0
            val = phi(v)
            assert abs(val.imag) < TOL_RESID and val.real > 0
            rebuilt = eigenfunctional(inc, 1.5 * v, phi.source)
            assert np.max(np.abs(rebuilt.values - phi.values)) < TOL_RESID
            # (e) endpoints are compatible states
            for state in (phi.source, phi.range):
                ok, _ = is_compatible_state(inc, state)
                assert ok
            # (c)/(f) equality criterion
            assert phi.equal(rebuilt)
            rotated = eigenfunctional(inc, 1j * v, phi.source)
            assert not phi.equal(rotated)
            assert phi.phase_class_equal(rotated)
    print("ACCEPTANCE 9: PASS")


def test_acceptance_10_envelope_pipeline():
    for n in (2, 3):
        cert = cartan_envelope(mndn_inclusion(n))
        assert cert.success and cert.theta_isomorphism
        assert block_structure(cert.realization.algebra) == (n,)
    m2c = m2c_inclusion()
    cert = cartan_envelope(m2c)
    assert not cert.success
    assert not cert.dc_abelian
    assert "non-abelian" in cert.rejection_reason
    for inc in cartan_fixture_inclusions():
        assert envelope_uniqueness_crosscheck(inc)
    print("ACCEPTANCE 10: PASS")


def test_acceptance_11_nested_cover_epimorphism():
    C = generate_star_algebra(2, [E(0, 0, 2), E(1, 1, 2)])
    D = generate_star_algebra(2, [np.eye(2)])
    inc = make_inclusion(C, D, [np.diag([1.0, -1.0]).astype(complex)])
    s1 = mod_state_from_density(inc, 0, np.diag([1.0, 0]))
    s2 = mod_state_from_density(inc, 0, np.diag([0, 1.0]))
    F1 = build_cover(inc, "custom", F=[s1])
    F2 = build_cover(inc, "custom", F=[s1, s2])
    cmp = cover_comparison(inc, F1, F2)
    assert cmp.dim_small < cmp.dim_big          # strict dimension drop
    assert cmp.intertwining_residual < TOL_RESID  # q o theta_2 = theta_1
    # surjectivity: every small-twist arrow is hit by the restriction
    assert set(cmp.arrow_map) == set(cmp.data_small.twist.groupoid.arrows)
    print("ACCEPTANCE 11: PASS")

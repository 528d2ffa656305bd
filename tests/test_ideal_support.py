"""``ideal_generated_by`` takes its support as the range projection of
A S (``ideal_from_subspace``); here it is matched against the rule it
replaced, the sum of the central blocks that some seed meets, on sparse
seeds in block algebras of M_2-M_4 and in realized corpus algebras."""

import numpy as np
import pytest

from cartankit.matalg import (
    _vec,
    central_projections,
    generate_star_algebra,
    hs_norm,
    ideal_generated_by,
    row_span,
    span_residuals,
)
from cartankit.reduced import realize
from conftest import random_twist_corpus
from test_functional_densities import ref_ideal_support


def ref_ideal_generated_by(A, seeds):
    """The centre-block rule (``ref_ideal_support`` on the seeds) and the
    ideal z A it gives."""
    z = ref_ideal_support(A, seeds)
    return z, row_span(_vec(z @ A.stack))


def block_algebra(blocks, seed):
    """(+)_k M_{a_k} (x) 1_{b_k} for blocks [(a_k, b_k)], conjugated by a
    seeded unitary."""
    n = sum(a * b for a, b in blocks)
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((n, n))
                        + 1j * rng.standard_normal((n, n)))
    gens, at = [], 0
    for a, b in blocks:
        for i in range(a):
            for j in range(a):
                m = np.zeros((n, n), dtype=complex)
                m[at:at + a * b, at:at + a * b] = np.kron(
                    np.eye(a)[:, [i]] @ np.eye(a)[[j]], np.eye(b))
                gens.append(q @ m @ q.conj().T)
        at += a * b
    return generate_star_algebra(n, gens)


SMALL = [[(2, 1)], [(1, 1), (1, 1)], [(3, 1)], [(2, 1), (1, 1)],
         [(1, 1)] * 3, [(2, 1), (2, 1)], [(2, 1), (1, 1), (1, 1)],
         [(2, 2)]]


def _algebras():
    out = [(f"small{k}", block_algebra(b, k), 6) for k, b in enumerate(SMALL)]
    out += [(f"corpus{k}", realize(T).algebra, 3)
            for k, T in enumerate(random_twist_corpus(10, seed=5))]
    return out


def _seed_sets(A, count, seed):
    """Sparse seeds: a random central part of a combination of one or two
    basis elements, one or two seeds a set."""
    rng = np.random.default_rng(seed)
    Z = central_projections(A)
    out = []
    for k in range(count):
        seeds = []
        for _ in range(1 + k % 2):
            z = sum((q for q in Z if rng.random() < 0.5), 0 * A.unit)
            picks = rng.choice(A.dim, size=min(A.dim, 2), replace=False)
            coef = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            seeds.append(z @ sum(c * A.stack[p] for c, p in zip(coef, picks)))
        out.append(seeds)
    return out


CASES = [pytest.param(A, seeds, id=f"{name}-{k}")
         for j, (name, A, count) in enumerate(_algebras())
         for k, seeds in enumerate(_seed_sets(A, count, j))]


def test_cases_include_proper_ideals():
    dims = [(A.dim, len(ref_ideal_generated_by(A, seeds)[1]))
            for A, seeds in (p.values for p in CASES)]
    assert len(dims) == 78
    assert sum(0 < j < d for d, j in dims) >= 20


@pytest.mark.parametrize("A, seeds", CASES)
def test_support_matches_centre_blocks(A, seeds):
    J = ideal_generated_by(A, seeds)
    z, rows = ref_ideal_generated_by(A, seeds)
    assert J.dim == len(rows)
    assert hs_norm(J.support_projection - z) <= 1e-12
    if J.dim:
        assert span_residuals(rows, J.basis_rows).max() <= 1e-9

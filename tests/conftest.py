"""Shared fixtures: standard groupoids, twists, inclusions, the
randomized twist corpus used by the property suites, and the dense
references that left the package (essential inclusions through centres,
structure constants, coboundary twists, the realization's delta images
and their spans, HS coefficients of a stack and elements from them)."""

import numpy as np
import pytest

from cartankit.groupoid import (
    cyclic_groupoid,
    disjoint_union,
    klein_four_groupoid,
    pair_groupoid,
)
from cartankit.errors import OutsideFibers
from cartankit.inclusion import make_inclusion
from cartankit.matalg import (
    EPS,
    FdStarAlgebra,
    _vec,
    central_projections,
    generate_star_algebra,
    rank,
    row_span,
)
from cartankit.twist import (
    CocycleTwist,
    EquivariantFunction,
    _with_phases,
    trivial_twist,
)


def E(i, j, n):
    m = np.zeros((n, n), dtype=complex)
    m[i, j] = 1.0
    return m


def k4_nontrivial_sigma(K):
    """The standard nontrivial normalized cocycle on Z/2 x Z/2:
    sigma((a,b),(c,d)) = (-1)^(b c)."""
    def val(x, y):
        return (-1.0) ** (int(x[-1]) * int(y[-2])) + 0.0j
    return CocycleTwist(K, {p: val(*p) for p in K.compose_table})


def subspace_equals(A, B, eps=EPS):
    """A and B span one subspace: equal dimensions, and each contains the
    other's basis (left the package with the closure-based regularity)."""
    return A.dim == B.dim and B.contains_all(A.stack, eps) and \
        A.contains_all(B.stack, eps)


def ref_regular(inc):
    """The closure-based regularity that ``Inclusion.regular`` replaced:
    C*(listed normalizers and D) equals C.  It decides regularity only
    when the list generates C*(N(C, D))."""
    gens = list(inc.normalizer_gens) + list(inc.D.basis)
    return subspace_equals(generate_star_algebra(inc.C.ambient_dim, gens),
                           inc.C)


def mndn_inclusion(n):
    units = [E(i, j, n) for i in range(n) for j in range(n)]
    C = generate_star_algebra(n, units)
    D = generate_star_algebra(n, [E(i, i, n) for i in range(n)])
    return make_inclusion(C, D, units)


def m2c_inclusion():
    """(M2 + C, C·1) with spanning unitary normalizers."""
    def bd(m2, lam):
        out = np.zeros((3, 3), dtype=complex)
        out[:2, :2] = m2
        out[2, 2] = lam
        return out

    gens = [
        bd(np.array([[0, 1], [1, 0]]), 1),
        bd(np.array([[1, 0], [0, -1]]), 1),
        bd(np.array([[0, -1j], [1j, 0]]), 1),
        bd(np.diag([1, 1j]), 1),
        bd(np.eye(2), -1),
    ]
    C = generate_star_algebra(3, gens)
    D = generate_star_algebra(3, [np.eye(3)])
    return make_inclusion(C, D, gens)


def unequal_rank_inclusion():
    """M_3 over span{diag(1, 1, 0), diag(0, 0, 1)}: a rank-2 corner M_2
    and a rank-1 corner, joined by nonzero slices that no normalizer
    crosses, since u*u = p_i and uu* = p_j need equal ranks."""
    C = generate_star_algebra(3, [E(i, j, 3) for i in range(3)
                                  for j in range(3)])
    D = generate_star_algebra(3, [np.diag([1.0, 1, 0]), np.diag([0.0, 0, 1])])
    paulis = [np.array([[0, 1], [1, 0]]), np.diag([1, -1]),
              np.array([[0, -1j], [1j, 0]])]
    gens = [np.block([[u, np.zeros((2, 1))], [np.zeros((1, 2)), np.eye(1)]])
            for u in paulis] + [np.diag([1.0, 1, -1])]
    return make_inclusion(C, D, gens)


#: The refusal of ``unequal_rank_inclusion`` after its prefix: the slice
#: p_1 C p_0 from the rank-1 corner C p_0 to the rank-2 corner M_2.
UNEQUAL_RANK_WITNESS = (": dim p_1 C p_0 = 2, dim A_0 = 1, dim A_1 = 4, "
                        "rank p_0 = 1, rank p_1 = 2")


def ref_essential_inclusion(A: FdStarAlgebra, B: FdStarAlgebra,
                            blocks=None) -> bool:
    """Every nonzero ideal of A meets B (finite scale: every minimal
    central block of A); ``blocks`` are A's minimal central projections,
    computed here when not given."""
    for q in central_projections(A) if blocks is None else blocks:
        # no nonzero b with qb = b
        if rank(_vec(B.stack - q @ B.stack).T) == B.dim:
            return False
    return True


def ref_structure_constants(T: CocycleTwist, degree: int) -> np.ndarray:
    """Dense tensor S[i, j, l]: delta_i * delta_j = sum_l S[i,j,l] delta_l."""
    t = T.groupoid.arrays
    n = len(T.groupoid.arrows)
    S = np.zeros((n, n, n), dtype=complex)
    S[t.a, t.b, t.ab] = T.phases(degree)
    return S


def ulps_apart(got, want) -> np.ndarray:
    """|got - want| in units in the last place of want, entrywise."""
    want = np.asarray(want, dtype=float)
    return np.abs(np.asarray(got) - want) / np.spacing(np.abs(want))


def ref_coefficient_matrix(A: FdStarAlgebra, stack) -> np.ndarray:
    """Row k: the HS coefficients of stack[k] against A's basis."""
    return _vec(stack) @ A.basis_rows.conj().T


def ref_element(A: FdStarAlgebra, coeffs) -> np.ndarray:
    """The element of A with the given HS coefficients."""
    n = A.ambient_dim
    return (A.basis_rows.T @ np.asarray(coeffs, dtype=complex)).reshape(n, n)


def ref_delta_images(R) -> np.ndarray:
    """The dense (|G|, N^2) stack of a realization R: row g is the
    represented delta_g, flattened.  Refused where a pair lands off the
    fibers (row -1, which numpy would read as the last row)."""
    p, rows, cols = R._fiber_entries
    if (rows < 0).any():
        raise OutsideFibers("a product leaves the realized fibers")
    n, N = len(R.twist.groupoid.arrows), R.total_dim
    out = np.zeros((n, N, N), dtype=complex)
    out[R.twist.groupoid.arrays.a[p], rows, cols] = \
        R.twist.phases(R.degree)[p]
    return out.reshape(n, N * N)


def ref_algebra(R) -> FdStarAlgebra:
    """The realized algebra as a ``row_span`` of the delta images."""
    return FdStarAlgebra(R.total_dim, row_span(ref_delta_images(R)),
                         R.unit_matrix)


def ref_diagonal(R) -> FdStarAlgebra:
    """The diagonal as a ``row_span`` of the unit arrows' delta images."""
    G = R.twist.groupoid
    units = [G.arrays.index[e] for e in G.unit_arrow.values()]
    return FdStarAlgebra(R.total_dim, row_span(ref_delta_images(R)[units]),
                         R.unit_matrix)


def ref_delta_norms(R) -> np.ndarray:
    """The largest 2-norm of each delta image's orbit blocks, by SVD."""
    N = R.total_dim
    imgs = ref_delta_images(R).reshape(-1, N, N)
    out = np.zeros(len(imgs))
    end = 0
    for fiber in R.fibers:
        start, end = end, end + len(fiber)
        out = np.maximum(out, np.linalg.norm(
            imgs[:, start:end, start:end], 2, axis=(1, 2)))
    return out


def coboundary_twist(G, lam: dict) -> CocycleTwist:
    """sigma(a, b) = lam(a) lam(b) / lam(ab) for a modulus-one lam with
    lam = 1 on unit arrows; always a normalized cocycle."""
    t = G.arrays
    v = np.array([lam[a] for a in G.arrows], dtype=complex)
    return _with_phases(G, v[t.a] * v[t.b] / v[t.ab])


def random_coboundary(G, rng, k4_components=()):
    """A random normalized cocycle: a coboundary, optionally multiplied
    by the nontrivial K4 cocycle on designated components."""
    lam = {a: np.exp(2j * np.pi * rng.random()) for a in G.arrows}
    for e in G.unit_arrow.values():
        lam[e] = 1.0 + 0.0j
    T = coboundary_twist(G, lam)
    if k4_components:
        sigma = dict(T.sigma)
        for (a, b), v in T.sigma.items():
            for prefix in k4_components:
                if a.startswith(prefix) and b.startswith(prefix):
                    xa, xb = a[len(prefix):], b[len(prefix):]
                    sigma[(a, b)] = v * (-1.0) ** (int(xa[-1]) * int(xb[-2]))
        T = CocycleTwist(G, sigma)
    return T


def random_twist_corpus(count, seed=0):
    """Randomized twists over small groupoids (<= 24 arrows)."""
    rng = np.random.default_rng(seed)
    out = []
    builders = [
        lambda: (pair_groupoid(int(rng.integers(1, 5))), ()),
        lambda: (klein_four_groupoid(prefix="k"), ()),
        lambda: (cyclic_groupoid(int(rng.integers(2, 5))), ()),
        lambda: (disjoint_union(pair_groupoid(int(rng.integers(1, 4))),
                                klein_four_groupoid(prefix="k")), ("B.k",)),
        lambda: (disjoint_union(pair_groupoid(int(rng.integers(1, 4))),
                                cyclic_groupoid(int(rng.integers(2, 4)))),
                 ()),
    ]
    while len(out) < count:
        G, k4c = builders[int(rng.integers(len(builders)))]()
        if len(G.arrows) > 24:
            continue
        out.append(random_coboundary(G, rng, k4c))
    return out


def random_function(T, degree, rng):
    n = len(T.groupoid.arrows)
    vals = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return EquivariantFunction(T, degree, vals)


@pytest.fixture
def pair2():
    return pair_groupoid(2)


@pytest.fixture
def pair2_twist(pair2):
    return trivial_twist(pair2)


@pytest.fixture
def k4():
    return klein_four_groupoid()


@pytest.fixture
def k4_triv(k4):
    return trivial_twist(k4)


@pytest.fixture
def k4_ns(k4):
    return k4_nontrivial_sigma(k4)


@pytest.fixture
def m2d2():
    return mndn_inclusion(2)


@pytest.fixture
def m3d3():
    return mndn_inclusion(3)


@pytest.fixture
def m2c():
    return m2c_inclusion()

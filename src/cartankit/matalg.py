"""Finite-dimensional complex *-algebra engine.

Algebras are concrete *-subalgebras of M_n(C), carried around as an
orthonormal basis under the Hilbert-Schmidt inner product
<a, b> = trace(b* a).  Membership questions are answered by orthogonal
projection residuals rather than exact linear solves.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    DimensionOverflow,
    NonSquareMatrix,
    NotAbelian,
    NotASubalgebra,
    NumericalRankAmbiguity,
    SeedOutsideAlgebra,
)

#: Global default tolerance for subspace/equality decisions.
EPS = 1e-9
#: Singular-value threshold for rank decisions.
RANK_TOL = 1e-8
#: Dimension cap for generated algebras.
DIM_CAP = 4096

# Fixed seed: genericity arguments (generic elements of abelian algebras)
# must stay deterministic across runs.
_GENERIC_SEED = 0x5EED


def hs_inner(a: np.ndarray, b: np.ndarray) -> complex:
    """Hilbert-Schmidt inner product trace(b* a)."""
    return complex(np.vdot(b, a))


def hs_norm(a: np.ndarray) -> float:
    return float(np.linalg.norm(a))


def operator_norm(x: np.ndarray) -> float:
    """Largest singular value of x."""
    if x.size == 0:
        return 0.0
    return float(np.linalg.norm(np.asarray(x, dtype=complex), 2))


def _as_matrix(x, n: int | None = None) -> np.ndarray:
    m = np.asarray(x, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise NonSquareMatrix(f"expected a square matrix, got shape {m.shape}")
    if n is not None and m.shape[0] != n:
        raise NonSquareMatrix(f"expected shape ({n},{n}), got {m.shape}")
    return m


def _vec(mats) -> np.ndarray:
    return np.array([np.asarray(m, dtype=complex).ravel() for m in mats])


def _rank_of(s: np.ndarray) -> int:
    """Number of singular values (descending) above RANK_TOL * max(s_max, 1)."""
    cut = RANK_TOL * max(s[0], 1.0) if len(s) else RANK_TOL
    return int(np.sum(s > cut))


def row_span(rows: np.ndarray) -> np.ndarray:
    """Orthonormal basis for the row span, via SVD."""
    if rows.size == 0:
        return rows.reshape(0, rows.shape[-1] if rows.ndim == 2 else 0)
    _, s, vh = np.linalg.svd(rows, full_matrices=False)
    return vh[:_rank_of(s)]


def null_space(K: np.ndarray) -> np.ndarray:
    """Orthonormal rows x with K x^T ~ 0, via SVD.

    The full right factor is needed only when K is wide (more columns
    than rows); a tall K gets the thin SVD, whose right factor is square.
    """
    _, s, vh = np.linalg.svd(K, full_matrices=K.shape[0] < K.shape[1])
    return vh[_rank_of(s):].conj()


def rank(K: np.ndarray) -> int:
    """Numerical rank of K, from its singular values."""
    return _rank_of(np.linalg.svd(K, compute_uv=False))


def _span_project(basis_rows: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Project v onto the row span of an orthonormal basis_rows."""
    if basis_rows.shape[0] == 0:
        return np.zeros_like(v)
    coeff = basis_rows.conj() @ v
    return basis_rows.T @ coeff


def span_residual(basis_rows: np.ndarray, m: np.ndarray) -> float:
    v = np.asarray(m, dtype=complex).ravel()
    return float(np.linalg.norm(v - _span_project(basis_rows, v)))


@dataclass(frozen=True)
class FdStarAlgebra:
    """A *-subalgebra of M_n(C) with an orthonormal HS basis.

    The unit equals the ambient identity unless built with
    ``unit_is_ambient=False`` (corner algebras).
    """

    ambient_dim: int
    basis: tuple  # of n x n complex ndarrays, HS-orthonormal
    unit: np.ndarray
    unit_is_ambient: bool = True

    @property
    def dim(self) -> int:
        return len(self.basis)

    @cached_property
    def basis_rows(self) -> np.ndarray:
        return _vec(self.basis)

    def contains(self, m, eps: float = EPS) -> bool:
        return span_residual(self.basis_rows, _as_matrix(m, self.ambient_dim)) < eps

    def coefficients(self, m) -> np.ndarray:
        """HS coefficients of m against the basis (projection if outside)."""
        v = _as_matrix(m, self.ambient_dim).ravel()
        return self.basis_rows.conj() @ v

    def element(self, coeffs) -> np.ndarray:
        c = np.asarray(coeffs, dtype=complex)
        n = self.ambient_dim
        return (self.basis_rows.T @ c).reshape(n, n)

    def subspace_equals(self, other: "FdStarAlgebra", eps: float = EPS) -> bool:
        if self.dim != other.dim:
            return False
        return all(other.contains(b, eps) for b in self.basis) and \
            all(self.contains(b, eps) for b in other.basis)

    def is_subalgebra_of(self, other: "FdStarAlgebra", eps: float = EPS) -> bool:
        return all(other.contains(b, eps) for b in self.basis)

    def is_abelian(self, eps: float = EPS) -> bool:
        return all(hs_norm(a @ b - b @ a) < eps
                   for i, a in enumerate(self.basis)
                   for b in self.basis[i + 1:])


@dataclass(frozen=True)
class IdealSubspace:
    """A two-sided ideal of a FdStarAlgebra, with its central support."""

    parent: FdStarAlgebra
    basis: tuple
    support_projection: np.ndarray

    @property
    def dim(self) -> int:
        return len(self.basis)

    @cached_property
    def basis_rows(self) -> np.ndarray:
        return _vec(self.basis)

    def contains(self, m, eps: float = EPS) -> bool:
        if self.dim == 0:
            return hs_norm(_as_matrix(m, self.parent.ambient_dim)) < eps
        return span_residual(self.basis_rows, _as_matrix(m)) < eps


def _algebra_from_rows(ambient_dim: int, rows: np.ndarray, unit: np.ndarray,
                       unit_is_ambient: bool = True) -> FdStarAlgebra:
    """Assemble a FdStarAlgebra from spanning rows, unit-direction first."""
    n = ambient_dim
    uvec = unit.ravel()
    unorm = np.linalg.norm(uvec)
    first = uvec / unorm
    if rows.shape[0]:
        resid = rows - np.outer(rows @ first.conj(), first)
        rest = row_span(resid)
    else:
        rest = rows
    mats = [first.reshape(n, n)] + [r.reshape(n, n) for r in rest]
    return FdStarAlgebra(ambient_dim=n, basis=tuple(mats), unit=unit,
                         unit_is_ambient=unit_is_ambient)


def generate_star_algebra(ambient_dim: int, generators, cap: int = DIM_CAP,
                          unit: np.ndarray | None = None,
                          unit_is_ambient: bool = True) -> FdStarAlgebra:
    """Smallest unital *-subalgebra of M_n containing the generators.

    Iterates adjoints and pairwise products, re-orthonormalizing, until the
    dimension stabilizes.
    """
    n = int(ambient_dim)
    gens = [_as_matrix(g, n) for g in generators]
    if not gens and unit is None:
        gens = [np.eye(n, dtype=complex)]
    if unit is None:
        unit = np.eye(n, dtype=complex)
    seed = gens + [g.conj().T for g in gens] + [unit]
    rows = row_span(_vec(seed))
    while True:
        mats = [r.reshape(n, n) for r in rows]
        prods = [a @ b for a in mats for b in mats]
        new_rows = row_span(np.vstack([rows, _vec(prods)]))
        if new_rows.shape[0] > cap:
            raise DimensionOverflow(
                f"generated algebra exceeds dimension cap {cap}")
        if new_rows.shape[0] == rows.shape[0]:
            break
        rows = new_rows
    return _algebra_from_rows(n, rows, unit, unit_is_ambient)


def check_star_algebra(A: FdStarAlgebra, eps: float = EPS) -> list:
    """Check the FdStarAlgebra invariants; returns a list of violations."""
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


def relative_commutant(A: FdStarAlgebra, within: FdStarAlgebra,
                       eps: float = EPS) -> FdStarAlgebra:
    """{x in `within` : xa = ax for all a in A}."""
    if not A.is_subalgebra_of(within, eps):
        raise NotASubalgebra("A is not contained in the ambient algebra")
    n = within.ambient_dim
    blocks = []
    for a in A.basis:
        cols = [(a @ b - b @ a).ravel() for b in within.basis]
        blocks.append(np.array(cols).T)
    K = np.vstack(blocks)
    # within's basis is HS-orthonormal, so the mapped null rows are too
    return _algebra_from_rows(n, null_space(K) @ within.basis_rows,
                              within.unit, within.unit_is_ambient)


def center(A: FdStarAlgebra) -> FdStarAlgebra:
    return relative_commutant(A, A)


def minimal_projections(D: FdStarAlgebra, eps: float = EPS) -> tuple:
    """Ordered minimal projections of an abelian algebra, summing to its unit.

    Order is deterministic: lexicographic on rounded matrix entries, row
    major, real part before imaginary part.
    """
    if not D.is_abelian(eps):
        raise NotAbelian("algebra is not abelian")
    n = D.ambient_dim
    rng = np.random.default_rng(_GENERIC_SEED)
    complement = np.eye(n, dtype=complex) - D.unit
    for attempt in range(8):
        t = rng.standard_normal(D.dim)
        s = rng.standard_normal(D.dim)
        h = np.zeros((n, n), dtype=complex)
        for tj, sj, b in zip(t, s, D.basis):
            h += tj * (b + b.conj().T) + sj * 1j * (b - b.conj().T)
        sentinel = 10.0 * (1.0 + float(np.abs(h).sum()))
        evals, evecs = np.linalg.eigh(h + sentinel * complement)
        # cluster eigenvalues
        order = np.argsort(evals)
        evals, evecs = evals[order], evecs[:, order]
        gap = max(1e-7, 1e-7 * max(1.0, float(np.abs(evals).max())))
        groups = []
        start = 0
        for i in range(1, len(evals) + 1):
            if i == len(evals) or evals[i] - evals[i - 1] > gap:
                groups.append(range(start, i))
                start = i
        projs = []
        ok = True
        for g in groups:
            v = evecs[:, list(g)]
            p = v @ v.conj().T
            if hs_norm(p @ D.unit - p) < eps:  # drop the complement cluster
                if not D.contains(p, 1e-7):
                    ok = False
                    break
                projs.append(p)
        if ok and len(projs) == D.dim:
            break
    else:
        raise NumericalRankAmbiguity(
            "could not separate minimal projections of abelian algebra")

    def key(p):
        flat = np.round(p.ravel(), 6)
        return tuple(x for z in flat for x in (z.real, z.imag))

    projs.sort(key=key)
    total = sum(projs)
    if hs_norm(total - D.unit) >= 1e-7:
        raise NumericalRankAmbiguity(
            "minimal projections of abelian algebra do not sum to its unit")
    return tuple(projs)


def central_projections(A: FdStarAlgebra) -> tuple:
    """Minimal central projections of A, in the deterministic order."""
    return minimal_projections(center(A))


def block_structure(A: FdStarAlgebra) -> tuple:
    """Sorted multiset of matrix-block sizes: A = (+) M_{n_i}(C)."""
    sizes = []
    for p in central_projections(A):
        d = rank(_vec([p @ b @ p for b in A.basis]))
        ni = round(np.sqrt(d))
        if ni * ni != d:
            raise NumericalRankAmbiguity(
                f"central compression has non-square dimension {d}")
        sizes.append(ni)
    return tuple(sorted(sizes))


def ideal_generated_by(A: FdStarAlgebra, seeds, eps: float = EPS) -> IdealSubspace:
    """Smallest two-sided ideal of A containing the seed matrices."""
    n = A.ambient_dim
    seeds = [_as_matrix(s, n) for s in seeds]
    for s in seeds:
        if not A.contains(s, max(eps, 1e-7)):
            raise SeedOutsideAlgebra("seed matrix lies outside the algebra")
    live = [s for s in seeds if hs_norm(s) >= eps]
    if not live:
        return IdealSubspace(parent=A, basis=(),
                             support_projection=np.zeros((n, n), dtype=complex))
    # finite-dimensional ideals are sums of central blocks
    support_blocks = [q for q in central_projections(A)
                      if any(hs_norm(q @ s) >= eps for s in live)]
    support = sum(support_blocks)
    rows = row_span(_vec([support @ b for b in A.basis]))
    basis = tuple(r.reshape(n, n) for r in rows)
    return IdealSubspace(parent=A, basis=basis, support_projection=support)


def ideal_from_subspace(A: FdStarAlgebra, rows: np.ndarray,
                        eps: float = EPS) -> IdealSubspace:
    """Wrap an orthonormal subspace of A known to be an ideal."""
    n = A.ambient_dim
    if rows.shape[0] == 0:
        return IdealSubspace(parent=A, basis=(),
                             support_projection=np.zeros((n, n), dtype=complex))
    mats = [r.reshape(n, n) for r in rows]
    support_blocks = [q for q in central_projections(A)
                      if any(hs_norm(q @ m) >= eps for m in mats)]
    support = sum(support_blocks) if support_blocks else np.zeros((n, n), dtype=complex)
    return IdealSubspace(parent=A, basis=tuple(mats), support_projection=support)

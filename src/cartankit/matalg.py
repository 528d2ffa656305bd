"""Finite-dimensional complex *-algebra engine.

Algebras are concrete *-subalgebras of M_n(C), carried around as an
orthonormal basis under the Hilbert-Schmidt inner product
<a, b> = trace(b* a).  Membership questions are answered by orthogonal
projection residuals rather than exact linear solves.

An algebra stores its basis once: ``basis_rows`` is the (d, n^2) array of
flattened HS-orthonormal elements, and ``stack`` (or ``basis``) its
(d, n, n) view.  Constructors hand over orthonormal rows in the order
found, never orthonormalized twice; only a closure under generators starts
at unit/sqrt(n).  Coefficients, containment, commutators and products are
contractions over the rows, for a whole stack of matrices at a time
(``contains_all``, ``span_residuals``).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count

import numpy as np

from .errors import (
    DimensionOverflow,
    EmptyAlgebra,
    NonSquareMatrix,
    NotAbelian,
    NotASubalgebra,
    NumericalRankAmbiguity,
    SeedOutsideAlgebra,
)

# The tolerance policy: every numerical cut of the package, named once.
#: Subspace residuals, vanishing weights, the entry that pins a phase.
EPS = 1e-9
#: Singular values (relative to max(s_max, 1)), germ ratios, commutators.
RANK_TOL = 1e-8
#: Subalgebra membership (normalizers, projections, seeds), eigen-gaps.
NORMALIZER_TOL = 1e-7
#: State values: equality, traciality, compatibility, theta_F entries.
STATE_TOL = 1e-7
#: Distance at which two covers' eigenfunctional classes match.
COVER_MATCH_TOL = 1e-6
#: Cocycle identity and normalization of a twist's sigma.
COCYCLE_TOL = 1e-12
#: Dimension cap for generated algebras.
DIM_CAP = 4096
#: Complex entries per chunk of a round's products in
#: ``generate_star_algebra`` (at least one new direction times S).
_PRODUCT_CHUNK = 1 << 12


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
    """Rows of flattened matrices, from a list or a (k, n, n) stack."""
    m = np.asarray(mats, dtype=complex)
    return m.reshape(len(m), -1) if m.size else m.reshape(len(m), 0)


def _rank_of(s: np.ndarray):
    """Number of singular values (descending along the last axis) above
    RANK_TOL * max(s_max, 1); an int for one spectrum, an array for a
    stack of them."""
    s_max = s[..., 0] if s.shape[-1] else np.zeros(s.shape[:-1])
    ranks = np.sum(s > RANK_TOL * np.maximum(s_max, 1.0)[..., None], axis=-1)
    return int(ranks) if ranks.ndim == 0 else ranks


def row_span(rows: np.ndarray):
    """Orthonormal basis for the row span, via SVD.  On a (k, r, c) stack,
    the tuple of the k bases, from one batched SVD cut matrix by matrix."""
    if rows.size == 0:
        if rows.ndim == 3:
            return tuple(rows[:, :0])
        return rows.reshape(0, rows.shape[-1] if rows.ndim == 2 else 0)
    _, s, vh = np.linalg.svd(rows, full_matrices=False)
    if rows.ndim == 2:
        return vh[:_rank_of(s)]
    return tuple(v[:r] for v, r in zip(vh, _rank_of(s)))


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


def span_residuals(basis_rows: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Distance of each row of ``rows`` (k, n^2) from the row span of an
    orthonormal ``basis_rows``."""
    return np.linalg.norm(rows - rows @ basis_rows.conj().T @ basis_rows,
                          axis=-1)


def span_residual(basis_rows: np.ndarray, m: np.ndarray) -> float:
    v = np.asarray(m, dtype=complex).reshape(1, -1)
    return float(span_residuals(basis_rows, v)[0])


def _commutators(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """K[i, :, :, j] = a_i b_j - b_j a_i for stacks A (k, n, n), B (l, n, n),
    written in place so that K.reshape(k n^2, l) costs no copy."""
    K = np.empty((len(A), A.shape[1], A.shape[2], len(B)), dtype=complex)
    view = K.transpose(0, 3, 1, 2)
    np.matmul(A[:, None], B[None], out=view)
    view -= B[None] @ A[:, None]
    return K


@dataclass(frozen=True)
class FdStarAlgebra:
    """A *-subalgebra of M_n(C) with an orthonormal HS basis, stored as
    the (d, n^2) rows ``basis_rows``; its unit is a projection, the
    identity but for corner algebras."""

    ambient_dim: int
    basis_rows: np.ndarray  # (d, n^2) complex, HS-orthonormal rows
    unit: np.ndarray

    @property
    def dim(self) -> int:
        return len(self.basis_rows)

    @property
    def stack(self) -> np.ndarray:
        """The basis as a (d, n, n) view of ``basis_rows``."""
        n = self.ambient_dim
        return self.basis_rows.reshape(self.dim, n, n)

    basis = stack

    def contains(self, m, eps: float = EPS) -> bool:
        return span_residual(self.basis_rows, _as_matrix(m, self.ambient_dim)) < eps

    def contains_all(self, stack, eps: float = EPS) -> bool:
        """``contains(m, eps)`` for every m of a (k, n, n) stack."""
        return bool(np.all(span_residuals(self.basis_rows,
                                          self._rows(stack)) < eps))

    def coefficients(self, m) -> np.ndarray:
        """HS coefficients of m against the basis (projection if outside)."""
        v = _as_matrix(m, self.ambient_dim).ravel()
        return (self.basis_rows @ v.conj()).conj()

    def _rows(self, stack) -> np.ndarray:
        m = np.asarray(stack, dtype=complex)
        n = self.ambient_dim
        if m.ndim != 3 or m.shape[1:] != (n, n):
            raise NonSquareMatrix(
                f"expected a stack of ({n},{n}) matrices, got shape {m.shape}")
        return m.reshape(len(m), n * n)

    def is_subalgebra_of(self, other: "FdStarAlgebra", eps: float = EPS) -> bool:
        return other.contains_all(self.stack, eps)

    def is_abelian(self, eps: float = EPS) -> bool:
        """Every pair of basis elements commutes; one batch of commutators
        per basis element, so memory stays at d n^2."""
        S = self.stack
        return all(np.all(np.linalg.norm(a @ S[i + 1:] - S[i + 1:] @ a,
                                         axis=(1, 2)) < eps)
                   for i, a in enumerate(S))


@dataclass(frozen=True)
class IdealSubspace:
    """A two-sided or left ideal of a FdStarAlgebra, with its central
    support; its basis is stored as ``FdStarAlgebra``'s is."""

    parent: FdStarAlgebra
    basis_rows: np.ndarray  # (d, n^2) complex, HS-orthonormal rows
    support_projection: np.ndarray

    @property
    def dim(self) -> int:
        return len(self.basis_rows)

    @property
    def basis(self) -> np.ndarray:
        """The basis as a (d, n, n) view of ``basis_rows``."""
        n = self.parent.ambient_dim
        return self.basis_rows.reshape(self.dim, n, n)

    def contains(self, m, eps: float = EPS) -> bool:
        return span_residual(self.basis_rows,
                             _as_matrix(m, self.parent.ambient_dim)) < eps


def _round_residuals(S: np.ndarray, new: np.ndarray, V: np.ndarray):
    """Rows of the products s b (s in the stack S, b in the stack new),
    less their projection on the orthonormal rows V; None when their total
    Frobenius norm is at most RANK_TOL.

    Each singular value is at most the Frobenius norm, so such a block has
    rank 0 under ``row_span``'s cut.  The products are formed about
    ``_PRODUCT_CHUNK`` entries at a time and dropped while the running
    norm stays under RANK_TOL, so a round that adds nothing never holds
    its whole block; once it passes, every chunk is kept, the earlier ones
    formed again."""
    step = max(1, _PRODUCT_CHUNK // S.size)
    chunks = [slice(i, i + step) for i in range(0, len(new), step)]
    Vh = V.conj().T

    def residual(sl):
        P = (S[None] @ new[sl, None]).reshape(-1, V.shape[1])
        return P - (P @ Vh) @ V

    total = 0.0
    for j, sl in enumerate(chunks):
        r = residual(sl)
        total += float(np.vdot(r, r).real)
        if total > RANK_TOL ** 2:
            return np.vstack([residual(c) for c in chunks[:j]] + [r]
                             + [residual(c) for c in chunks[j + 1:]])
    return None


def generate_star_algebra(ambient_dim: int, generators,
                          cap: int = DIM_CAP) -> FdStarAlgebra:
    """Smallest unital *-subalgebra of M_n containing the generators.

    S is the span of the generators, their adjoints and the unit, and V
    starts as S.  Each round multiplies the directions the previous round
    added (S itself in the first) on the left by S's basis, and adds the
    part of those products outside V, through one ``row_span``.  It stops
    when a round adds nothing, or when dim V = n^2: M_n is the only
    n^2-dimensional subspace, and it is closed.

    At the fixed point V is the algebra.  V is the sum of the rounds'
    directions N_0 = S, N_1, ..., N_k; S N_i lies in V for every i (in
    N_{i+1} + V for i < k, in V for the last round), so S V is in V.
    With S in V, induction on m puts every word s_1 ... s_m in V, and V,
    built from such words, is their span: the algebra generated by S,
    which holds the unit.  S* = S, and the adjoint of a word in S is a
    word in S, so it is the *-algebra generated by the generators.

    The basis is unit/sqrt(n), then the span of the generators and their
    adjoints less their unit parts trace(g)/n 1, then each round's
    directions.  A seed span that is already an algebra is returned as it
    is.  Raises ``EmptyAlgebra`` for n = 0, and ``DimensionOverflow`` as
    soon as the span exceeds ``cap``: on the seed span, and before each
    round's products.
    """
    n = int(ambient_dim)
    if n == 0:
        raise EmptyAlgebra()
    gens = [_as_matrix(g, n) for g in generators]
    unit = np.eye(n, dtype=complex)
    k, d = len(gens), np.arange(n)
    seed = np.empty((2 * k, n, n), dtype=complex)
    for i, g in enumerate(gens):
        seed[i], seed[k + i] = g, g.conj().T
    seed[:, d, d] -= np.trace(seed, axis1=1, axis2=2)[:, None] / n
    rows = np.vstack([unit.reshape(1, -1) / np.sqrt(n), row_span(_vec(seed))])
    S = new = rows.reshape(len(rows), n, n)
    while True:
        if rows.shape[0] > cap:
            raise DimensionOverflow(
                f"generated algebra exceeds dimension cap {cap}")
        if rows.shape[0] >= n * n:
            break
        resid = _round_residuals(S, new, rows)
        if resid is None:
            break
        added = row_span(resid)
        if not added.shape[0]:
            break
        rows = np.vstack([rows, added])
        new = added.reshape(len(added), n, n)
    return FdStarAlgebra(n, rows, unit)


def relative_commutant(A: FdStarAlgebra,
                       within: FdStarAlgebra) -> FdStarAlgebra:
    """{x in `within` : xa = ax for all a in A}, as a null space."""
    if not A.is_subalgebra_of(within):
        raise NotASubalgebra("A is not contained in the ambient algebra")
    n = within.ambient_dim
    K = _commutators(A.stack, within.stack).reshape(A.dim * n * n, within.dim)
    # within's basis is HS-orthonormal, so the mapped null rows are too
    return FdStarAlgebra(n, null_space(K) @ within.basis_rows, within.unit)


def center(A: FdStarAlgebra) -> FdStarAlgebra:
    return relative_commutant(A, A)


def minimal_projections(D: FdStarAlgebra) -> tuple:
    """Ordered minimal projections of an abelian algebra, summing to its unit.

    Order is deterministic: lexicographic on rounded matrix entries, row
    major, real part before imaginary part.  The generic element that
    splits D has the fixed coefficients of ``_fixed_draws``.  A
    one-dimensional D (a scalar corner, the centre of a factor) is C 1,
    whose one minimal projection is its unit: no ``eigh`` is run.
    """
    if D.dim == 1:
        return (np.array(D.unit, dtype=complex),)
    return _minimal_projections(D, EPS, _fixed_draws())


def _minimal_projections(D: FdStarAlgebra, eps: float, draw) -> tuple:
    """``minimal_projections``, with the coefficients of the generic
    self-adjoint element drawn by ``draw(k)`` (k reals a call)."""
    if not D.is_abelian(eps):
        raise NotAbelian("algebra is not abelian")
    n = D.ambient_dim
    complement = np.eye(n, dtype=complex) - D.unit
    S, Sh = D.stack, D.stack.conj().transpose(0, 2, 1)
    herm, skew = S + Sh, 1j * (S - Sh)
    for attempt in range(8):
        t = draw(D.dim)
        s = draw(D.dim)
        # summed along the stack axis in basis order, as a running sum would
        h = (t[:, None, None] * herm + s[:, None, None] * skew).sum(axis=0)
        sentinel = 10.0 * (1.0 + float(np.abs(h).sum()))
        evals, evecs = np.linalg.eigh(h + sentinel * complement)
        # cluster eigenvalues
        order = np.argsort(evals)
        evals, evecs = evals[order], evecs[:, order]
        gap = NORMALIZER_TOL * max(1.0, float(np.abs(evals).max()))
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
                if not D.contains(p, NORMALIZER_TOL):
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
    if hs_norm(total - D.unit) >= NORMALIZER_TOL:
        raise NumericalRankAmbiguity(
            "minimal projections of abelian algebra do not sum to its unit")
    return tuple(projs)


def central_projections(A: FdStarAlgebra) -> tuple:
    """Minimal central projections of A, in the deterministic order."""
    return minimal_projections(center(A))


def _fixed_draws():
    """A fixed generic coefficient stream: call k gives sin(k j),
    j = 1..d, none of them 0.  Seeding a generator instead would add
    2.5-6 MB to a process's resident set (x86-64 Linux)."""
    calls = count(1)
    return lambda d: np.sin(next(calls) * np.arange(1.0, d + 1.0))


def block_structure(A: FdStarAlgebra) -> tuple:
    """Sorted multiset of matrix-block sizes: A = (+) M_{n_i}(C); () for
    the zero algebra."""
    if A.dim == 0:
        return ()
    sizes = []
    for p in central_projections(A):
        d = rank(_vec(p @ A.stack @ p))
        ni = round(np.sqrt(d))
        if ni * ni != d:
            raise NumericalRankAmbiguity(
                f"central compression has non-square dimension {d}")
        sizes.append(ni)
    return tuple(sorted(sizes))


def ideal_generated_by(A: FdStarAlgebra, seeds) -> IdealSubspace:
    """Smallest two-sided ideal of A containing the seed matrices."""
    n = A.ambient_dim
    seeds = [_as_matrix(s, n) for s in seeds]
    for s in seeds:
        if not A.contains(s, NORMALIZER_TOL):
            raise SeedOutsideAlgebra("seed matrix lies outside the algebra")
    live = [s / hs_norm(s) for s in seeds if hs_norm(s) >= EPS]
    if not live:
        return ideal_from_subspace(A, np.zeros((0, n * n)))
    # the support of the left ideal A S is the seeds' central support z
    # (``ideal_from_subspace``), and the ideal they generate is z A
    support = _range_projection(A.stack[:, None] @ np.array(live))
    return IdealSubspace(A, row_span(_vec(support @ A.stack)), support)


def ideal_from_subspace(A: FdStarAlgebra, rows: np.ndarray) -> IdealSubspace:
    """Wrap orthonormal rows spanning a left ideal L = A e of A (a
    two-sided ideal is one).  The support is the range projection of L's
    elements (``_range_projection``).  That is e's central support z:
    x e = x z e = z x e has its range in range(z), and on each block
    M_k (x) 1_l of A where e has a nonzero part f (x) 1_l, the x e in L
    give M_k f C^k (x) C^l, the whole block's range."""
    n = A.ambient_dim
    rows = np.asarray(rows, dtype=complex).reshape(-1, n * n)
    return IdealSubspace(A, rows, _range_projection(rows.reshape(-1, n, n)))


def _range_projection(mats: np.ndarray) -> np.ndarray:
    """The projection V^T conj(V) onto the sum of the ranges of a stack
    of matrices, V an orthonormal ``row_span`` of their stacked columns."""
    V = row_span(np.swapaxes(mats, -1, -2).reshape(-1, mats.shape[-1]))
    return V.T @ V.conj()

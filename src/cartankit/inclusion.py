"""Finite-dimensional inclusions (C, D): normalizers, dynamics, states,
pseudo-expectations and the canonical ideals.

D is an abelian unital subalgebra of C sharing its unit.  Its Gelfand
space is the finite list of minimal projections p_1..p_m; characters are
sigma_i(d) = trace(p_i d)/trace(p_i).  Pseudo-expectations are exactly
the maps E(x) = sum_i phi_i(p_i x p_i) p_i with each phi_i a state on
the corner p_i C p_i; uniqueness holds iff all corners are scalar.

Slices, corners and D' cap C are read from one compression of C per
inclusion.  Q_i is an isometry onto the range of p_i (``eigh`` of p_i),
and ``Inclusion._compressed_basis`` holds the blocks Q_j* b Q_i of every
basis element b of C, taken in one contraction.  x -> Q_j* x Q_i is an
HS isometry on p_j C p_i, so the rank of each slice is decided on its
rank p_j x rank p_i block, one batched ``row_span`` per block shape,
with the singular values, hence the cuts, of the full-width rows
p_j b p_i.  The corner algebras p_i C p_i are the diagonal blocks lifted
by Q_i, D' cap C is their direct sum, and D is a MASA exactly when every
corner is scalar (``Inclusion.commutant_of_D``).

When all corners are scalar the normalizer classes are exactly the
nonzero slices p_j C p_i (``Inclusion.corner_slices``).  Compatibility and
invariance of corner states are decided exactly on the corners.

A functional f on C is stored as its values on the basis of C, and
evaluated through its density: with B the rows ``C.basis_rows``,
W = (B^H vals) as an n x n matrix gives f(x) = sum(W * x) (``_density``),
and a density W' gives back the values B vec(W') (``_functional``).  The
maps that move functionals act on densities: rho(v* . v) has density
conj(v) W v^T (``_transports``), f(v* .) has conj(v) W and phi(. v) has
W v^T.  So a corner state (density (p rho p)^T), a transported state and
an eigenfunctional each cost O(n^3 + d n^2) on a d-dimensional C, with no
d x d coefficient matrix of a stack.  Normalizer, corner and kernel
conditions are checked on the whole stack at once.

No question asked here needs C's centre.  An ideal's central support is
the range projection of its elements (``matalg.ideal_from_subspace``),
and D' cap C is read off the corners, its direct summands: its dimension
is the sum of theirs, and its minimal central projections are theirs
(``Inclusion.commutant_blocks``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    InvarianceUndecided,
    NotANormalizer,
    NotAbelian,
    NotASubalgebra,
    NotInvariant,
    NotRegular,
    NonUniquePseudoExpectation,
    NumericalRankAmbiguity,
    OutsideAmbient,
    SourceVanishes,
)
from .matalg import (
    EPS,
    NORMALIZER_TOL,
    RANK_TOL,
    STATE_TOL,
    FdStarAlgebra,
    IdealSubspace,
    _algebra_from_rows,
    _as_matrix,
    _vec,
    central_projections,
    hs_norm,
    ideal_from_subspace,
    minimal_projections,
    null_space,
    row_span,
    span_residuals,
)

#: Complex entries of the products v S v* held at once by the stacked
#: normalizer check.
_NORMALIZER_CHUNK = 1 << 16


@dataclass(frozen=True)
class Inclusion:
    """An ambient algebra C with distinguished abelian subalgebra D, and
    normalizers that ``make_inclusion`` checks and no verdict reads."""

    C: FdStarAlgebra
    D: FdStarAlgebra
    normalizer_gens: tuple  # of matrices

    @cached_property
    def min_projs(self) -> tuple:
        return minimal_projections(self.D)

    @cached_property
    def n_corners(self) -> int:
        return len(self.min_projs)

    def char(self, i: int, d):
        """The character sigma_i of D, extended to C by compression; on a
        (k, n, n) stack d, the array of its values on each matrix."""
        vals = self._chars(d)[..., i]
        return complex(vals) if vals.ndim == 0 else vals

    def _chars(self, x) -> np.ndarray:
        """sigma_i(x) = tr(p_i x)/tr p_i for every corner i at once: (m,)
        on a matrix, (..., m) on a (..., n, n) stack.  One contraction
        with the flattened p_i, the matrix twin of ``_projection_rows``:
        p_i is self-adjoint, so tr(p_i x) = sum(conj(p_i) * x)."""
        x = np.asarray(x, dtype=complex)
        flat = x.reshape(x.shape[:-2] + (x.shape[-1] ** 2,))
        return flat @ _vec(self._projs).conj().T / self._ranks

    @cached_property
    def _projs(self) -> np.ndarray:
        """The p_i as one (m, n, n) stack."""
        return np.array(self.min_projs)

    @cached_property
    def _ranks(self) -> np.ndarray:
        """rank p_i = trace p_i, per corner."""
        return np.rint(np.trace(self._projs, axis1=1,
                                axis2=2).real).astype(np.intp)

    @cached_property
    def _ranges(self) -> np.ndarray:
        """(m, n, r) stack of isometries, r = max rank p_i: the first
        rank p_i columns Q_i of entry i are orthonormal eigenvectors of
        p_i for the eigenvalue 1, so p_i = Q_i Q_i*, and the rest are 0."""
        _, vecs = np.linalg.eigh(self._projs)
        r = int(self._ranks.max())
        return vecs[:, :, ::-1][:, :, :r] * \
            (np.arange(r) < self._ranks[:, None])[:, None, :]

    @cached_property
    def _compressed_basis(self) -> np.ndarray:
        """Q_j* b Q_i for every basis element b of C and every pair of
        corners, in one contraction: a (d, m, r, m, r) array in the layout
        of ``_ranges``, whose [:, j, :, i, :] is Q_j* b Q_i (zero outside
        its rank p_j x rank p_i corner)."""
        m, n, r = self._ranges.shape
        Q = self._ranges.transpose(1, 0, 2).reshape(n, m * r)
        return (Q.conj().T @ self.C.stack @ Q).reshape(-1, m, r, m, r)

    @cached_property
    def _slice_spans(self) -> dict:
        """{(i, j): orthonormal rows spanning Q_j* (p_j C p_i) Q_i} over all
        m^2 corner pairs, keys in order (see the module docstring)."""
        W, r, m = self._compressed_basis, self._ranks, self.n_corners
        i, j = np.divmod(np.arange(m * m), m)
        out = {}
        for a, b in sorted(set(zip(r[j].tolist(), r[i].tolist()))):
            sel = np.flatnonzero((r[j] == a) & (r[i] == b))
            # the two index arrays are split by a slice, so numpy puts
            # their axis first: blocks is (k, d, a, b)
            blocks = W[:, j[sel], :a, i[sel], :b]
            out.update(zip(sel.tolist(), row_span(
                blocks.reshape(len(sel), len(W), a * b))))
        return {divmod(k, m): out[k] for k in range(m * m)}

    @cached_property
    def _slice_blocks(self) -> tuple | None:
        """(keys, X) over the nonzero slices p_j C p_i, keys (i, j) in
        order: X[k] is the slice at keys[k] as an r x r block (zero outside
        its rank p_j x rank p_i corner), scaled so that u = Q_j X[k] Q_i*
        has u*u = p_i and uu* = p_j; None when some corner is not scalar."""
        if not self.scalar_corners:
            return None
        r = self._ranks
        spans = {key: rows for key, rows in self._slice_spans.items()
                 if len(rows)}
        X = np.zeros((len(spans),) + self._ranges.shape[2:] * 2, dtype=complex)
        for k, ((i, j), rows) in enumerate(spans.items()):
            if len(rows) > 1:
                raise NumericalRankAmbiguity(
                    f"slice p_{j} C p_{i} has rank {len(rows)} although "
                    "every corner is scalar")
            # rows[0] has unit HS norm, so x*x = p_i / rank p_i
            X[k, :r[j], :r[i]] = rows[0].reshape(r[j], r[i]) * np.sqrt(r[i])
        return list(spans), X

    @cached_property
    def corner_slices(self) -> dict | None:
        """{(i, j): u} over the nonzero slices p_j C p_i, with u spanning
        the slice and scaled so that u*u = p_i and uu* = p_j; None when
        some corner p_i C p_i is not scalar.

        With scalar corners |m_i|^2 = dim A_i = 1 in ``regular``'s proof,
        so a nonzero slice has dimension <m_i, m_j> = 1, joins equivalent
        corners and is spanned by a normalizer; each v p_i of a normalizer
        v lies in one slice: the slices are the classes."""
        if self._slice_blocks is None:
            return None
        keys, X = self._slice_blocks
        i, j = np.array(keys).T
        Q = self._ranges
        return dict(zip(keys, Q[j] @ X @ Q[i].conj().transpose(0, 2, 1)))

    @cached_property
    def corner_algebras(self) -> tuple:
        """The corner algebras p_i C p_i, computed once per inclusion.
        Nothing cached on an Inclusion refers back to it, so reference
        counting frees it without waiting for the cycle collector."""
        return tuple(corner_algebra(self, i) for i in range(self.n_corners))

    @cached_property
    def scalar_corners(self) -> bool:
        """Every corner is C p_i: the pseudo-expectation is unique."""
        return all(len(self._slice_spans[i, i]) == 1
                   for i in range(self.n_corners))

    @cached_property
    def regular(self) -> bool:
        """N(C, D) generates C iff every nonzero slice p_j C p_i has rank p_i
        = rank p_j and (dim p_j C p_i)^2 = dim A_i dim A_j, A_i = p_i C p_i.

        A normalizer's piece x = p_j v p_i has xx* in C p_j and x*x in C p_i
        (p_i, p_j are minimal in D), with one nonzero spectrum: x != 0 is a
        multiple of a partial isometry u, u*u = p_i, uu* = p_j.  Given such
        a u, p_j C p_i = u A_i is spanned by the normalizers u w, w unitary
        in A_i.  N(C, D) is closed under products and adjoints, so C*(N) is
        the sum of the slices between equivalent corners.  With m_i the
        ranks of p_i in C's simple summands, of multiplicities mu_k >= 1 in
        M_n: dim p_j C p_i = <m_i, m_j>, dim A_i = |m_i|^2, rank p_i =
        <mu, m_i>, and p_i ~ p_j iff m_i = m_j.  By Cauchy-Schwarz the
        square test holds iff m_j = lam m_i, lam > 0: lam = 1 by the ranks."""
        return self._irregular_slice is None

    @cached_property
    def _irregular_slice(self) -> tuple | None:
        """The first slice, keys in order, that fails ``regular``'s test, as
        (i, j, dim p_j C p_i, dim A_i, dim A_j, rank p_i, rank p_j); None
        when (C, D) is regular."""
        dims = {key: len(rows) for key, rows in self._slice_spans.items()}
        r = self._ranks.tolist()
        for (i, j), d in dims.items():
            a, b = dims[i, i], dims[j, j]
            if d and (r[i] != r[j] or d * d != a * b):
                return i, j, d, a, b, r[i], r[j]
        return None

    @cached_property
    def commutant_of_D(self) -> FdStarAlgebra:
        """D' cap C = (+)_i p_i C p_i, the direct sum of the corners.

        D is spanned by the orthogonal p_i, which sum to the unit of C.  If
        x in C commutes with D then p_j x p_i = p_j p_i x = 0 for i != j,
        so x = sum_i p_i x p_i; conversely such an x has
        p_k x = p_k x p_k = x p_k for every k.  Each p_i x p_i lies in C,
        as p_i does."""
        rows = np.concatenate([A.basis_rows for A in self.corner_algebras])
        return _algebra_from_rows(self.C.ambient_dim, rows, self.C.unit)

    @cached_property
    def commutant_blocks(self) -> tuple:
        """The minimal central projections of D' cap C.  It is the direct
        sum of the corners (``commutant_of_D``), so its centre is the sum
        of theirs: these are the corners' minimal central projections,
        p_i itself for a corner C p_i."""
        if self.scalar_corners:
            return self.min_projs
        return tuple(q for A in self.corner_algebras
                     for q in central_projections(A))

    @cached_property
    def is_masa(self) -> bool:
        """D' cap C = D, i.e. (see ``commutant_of_D``) every corner p_i C p_i
        is C p_i, as D's part of it is."""
        return self.scalar_corners

    @cached_property
    def _projection_rows(self) -> np.ndarray:
        """(m, d): row i holds the HS coefficients of p_i on C's basis, so
        row i @ vals is f(p_i) for the functional f with values vals."""
        return _vec(self.min_projs) @ self.C.basis_rows.conj().T


def make_inclusion(C: FdStarAlgebra, D: FdStarAlgebra,
                   normalizer_gens=()) -> Inclusion:
    """The inclusion (C, D) with the given normalizer generators, checked
    together: the first generator in list order that is malformed, lies
    outside C or fails the normalizer condition is refused."""
    if not D.is_subalgebra_of(C):
        raise NotASubalgebra("D is not contained in C")
    if not D.is_abelian():
        raise NotAbelian("D is not abelian")
    if hs_norm(C.unit - D.unit) >= EPS:
        raise NotASubalgebra("C and D do not share a unit")
    gens = tuple(np.asarray(v, dtype=complex) for v in normalizer_gens)
    inc = Inclusion(C=C, D=D, normalizer_gens=gens)
    n = C.ambient_dim
    good = ([v.shape == (n, n) for v in gens] + [False]).index(False)
    if not _normalizer_verdicts(inc, np.array(gens[:good]).reshape(
            good, n, n), NORMALIZER_TOL).all():
        raise NotANormalizer("generator fails the normalizer condition")
    if good < len(gens):
        _as_matrix(gens[good], n)  # raises NonSquareMatrix
    return inc


def is_normalizer(inc: Inclusion, v, eps: float = NORMALIZER_TOL) -> bool:
    """Whether v normalizes D, cut at max(eps, ``NORMALIZER_TOL``): an eps
    below the default cannot tighten the cut."""
    v = _as_matrix(v, inc.C.ambient_dim)
    return bool(_normalizer_verdicts(inc, v[None], eps)[0])


def _normalizer_verdicts(inc: Inclusion, V: np.ndarray,
                         eps: float) -> np.ndarray:
    """Whether v S v* and v* S v lie in D for each v of the (k, n, n) stack
    V and the basis stack S of D, up to max(eps, NORMALIZER_TOL).  Raises
    ``OutsideAmbient`` when the first v that fails lies outside C.  The
    products are formed about ``_NORMALIZER_CHUNK`` complex entries at a
    time, for whole generators."""
    tol = max(eps, NORMALIZER_TOL)
    k, n = len(V), inc.C.ambient_dim
    inside = span_residuals(inc.C.basis_rows, V.reshape(k, n * n)) < tol
    S, d = inc.D.stack, inc.D.dim
    Vh = V.conj().transpose(0, 2, 1)
    ok = np.ones(k, dtype=bool)
    step = max(1, _NORMALIZER_CHUNK // max(1, d * n * n))
    for lo in range(0, k, step):
        v, vh = V[lo:lo + step, None], Vh[lo:lo + step, None]
        for left, right in ((v, vh), (vh, v)):
            P = (left @ S @ right).reshape(-1, n * n)
            ok[lo:lo + step] &= np.all(span_residuals(
                inc.D.basis_rows, P).reshape(-1, d) < tol, axis=1)
    bad = np.flatnonzero(~(inside & ok))
    if len(bad) and not inside[bad[0]]:
        raise OutsideAmbient("v lies outside the ambient algebra")
    return ok


def _require_normalizer(inc: Inclusion, v) -> np.ndarray:
    v = np.asarray(v, dtype=complex)
    if not is_normalizer(inc, v):
        raise NotANormalizer("v is not a normalizer of D in C")
    return v


def _beta_targets(inc: Inclusion, v: np.ndarray) -> np.ndarray:
    """beta_v over the corners: entry i is the j at which the character
    beta_v(sigma_i) = sigma_i(v* . v)/sigma_i(v*v) is 1, or -1 where
    sigma_i(v*v) = 0; sigma_i(v* p_j v) read off the stack v* p_j v."""
    vh = v.conj().T
    wt = inc._chars(vh @ v).real
    live = wt > EPS
    # hits[j, k]: beta_v sends the k-th live corner to j
    hits = np.abs(inc._chars(vh @ inc._projs @ v)[:, live] / wt[live]
                  - 1.0) < STATE_TOL
    bad = np.flatnonzero(hits.sum(axis=0) != 1)
    if len(bad):
        raise NotANormalizer(f"corner {np.flatnonzero(live)[bad[0]]} does "
                             "not map to a unique corner under v")
    out = np.full(inc.n_corners, -1)
    out[live] = hits.argmax(axis=0)
    return out


def beta(inc: Inclusion, v) -> dict:
    """The partial bijection on corner indices induced by v."""
    t = _beta_targets(inc, _require_normalizer(inc, v))
    dom = np.flatnonzero(t >= 0)
    return dict(zip(dom.tolist(), t[dom].tolist()))


@dataclass(frozen=True)
class ThetaMap:
    """The *-isomorphism theta_v between corner-supported ideals of D."""

    inclusion: Inclusion
    v: np.ndarray
    domain: tuple  # corner indices j supporting D vv*
    codomain: tuple

    def apply(self, d) -> np.ndarray:
        """theta_v(vv* h) = v* h v; d must lie in the domain ideal, and
        h = sum_j sigma_j(d)/sigma_j(vv*) p_j over the domain."""
        inc, v, dom = self.inclusion, self.v, list(self.domain)
        c = inc._chars(d)[dom] / inc._chars(v @ v.conj().T)[dom]
        return v.conj().T @ np.tensordot(c, inc._projs[dom], 1) @ v


def theta(inc: Inclusion, v) -> ThetaMap:
    v = _require_normalizer(inc, v)
    dom = np.flatnonzero(np.abs(inc._chars(v @ v.conj().T)) > EPS)
    cod = np.flatnonzero(_beta_targets(inc, v) >= 0)
    return ThetaMap(inclusion=inc, v=v, domain=tuple(dom.tolist()),
                    codomain=tuple(cod.tolist()))


def fixed_point_ideal(inc: Inclusion, v) -> IdealSubspace:
    """K0 = {d in the support ideal of vv*D : vd = dv lies in D^c}."""
    v = _require_normalizer(inc, v)
    support = np.flatnonzero(np.abs(inc._chars(v @ v.conj().T)) > EPS)
    if not len(support):
        return ideal_from_subspace(inc.D, np.zeros((0, inc.D.ambient_dim ** 2)))
    P = inc._projs[support]
    S = inc.commutant_of_D.stack
    # linear conditions on coefficients t_j of d = sum t_j p_j
    vP = v @ P
    K = np.concatenate([_vec(vP - P @ v),
                        _vec(vP[:, None] @ S - S @ vP[:, None])], axis=1).T
    # the projections are not HS-normalized, so re-orthonormalize
    rows = row_span(null_space(K) @ _vec(P))
    return ideal_from_subspace(inc.D, rows)


def fixed_set_check(inc: Inclusion, v):
    """Corner support of K0 within the v*v ideal vs fixed points of beta.

    K0 is supported at corner i when |sigma_i(b_k)| > ``STATE_TOL`` for
    some b_k of its orthonormal basis, which holds whenever p_i is in K0:
    p_i's projection p' = sum_k c_k b_k on K0 has |c|_2 <= (rank p_i)^(1/2)
    and r = |p_i - p'|_HS < ``NORMALIZER_TOL``, so 1 - r <= |sigma_i(p')|
    <= (rank p_i dim K0)^(1/2) max_k |sigma_i(b_k)|, and rank p_i, dim K0
    <= n give max_k |sigma_i(b_k)| >= (1 - r)/n >> ``STATE_TOL``."""
    v = _require_normalizer(inc, v)
    K0 = fixed_point_ideal(inc, v)
    t = _beta_targets(inc, v)
    fixed = np.flatnonzero(t == np.arange(len(t)))
    seen = np.abs(inc._chars(np.reshape(K0.basis, (-1,) + v.shape)))
    support = np.flatnonzero((t >= 0) & (seen > STATE_TOL).any(axis=0))
    return (np.array_equal(support, fixed),
            {"support": support.tolist(), "fixed": fixed.tolist()})


# --- states --------------------------------------------------------------

@dataclass(frozen=True)
class ModState:
    """A state on C extending the character sigma_i of D."""

    inclusion: Inclusion
    corner_index: int
    values: np.ndarray  # functional values on the basis of C

    def __call__(self, x) -> complex:
        coeffs = self.inclusion.C.coefficients(x)
        return complex(self.values @ coeffs)

    @cached_property
    def density(self) -> np.ndarray:
        """W with rho(x) = sum(W * x) on C (``_density``)."""
        return _density(self.inclusion.C, self.values)

    def close_to(self, other: "ModState") -> bool:
        return bool(np.max(np.abs(self.values - other.values)) < STATE_TOL)


def _located_state(inc: Inclusion, vals: np.ndarray) -> ModState:
    """The ModState with these values, at the corner it is largest on."""
    on_d = inc._projection_rows @ vals
    return ModState(inclusion=inc, corner_index=int(np.argmax(on_d.real)),
                    values=vals)


def _density(C: FdStarAlgebra, vals: np.ndarray) -> np.ndarray:
    """The density W = (B^H vals) as an n x n matrix of the functional f
    with values ``vals`` on C's basis (rows B): f(x) = sum(W * x), the
    projection of x on C included.  On a (..., d) stack of values, the
    (..., n, n) stack of densities."""
    n = C.ambient_dim
    vals = np.asarray(vals)
    return (vals.conj() @ C.basis_rows).conj().reshape(*vals.shape[:-1], n, n)


def _functional(C: FdStarAlgebra, W: np.ndarray) -> np.ndarray:
    """The values on C's basis of the functional x -> sum(W * x), for a
    density or a (..., n, n) stack of them: B vec(W)."""
    return W.reshape(W.shape[:-2] + (C.ambient_dim ** 2,)) @ C.basis_rows.T


def _transports(W: np.ndarray, V: np.ndarray) -> np.ndarray:
    """conj(v) W v^T, the density of x -> f(v* x v) for f of density W,
    broadcast over stacks of densities and of v: sum(W * v* x v) =
    sum_ij W_ij sum_ab conj(v_ai) x_ab v_bj."""
    return V.conj() @ W @ np.swapaxes(V, -1, -2)


def _gram(C: FdStarAlgebra, vals: np.ndarray) -> np.ndarray:
    """G[a, b] = f(a* b) over the basis of C, for the functional f with
    values ``vals``: sum(W * a* b) = sum(conj(a) * (b W^T))."""
    return C.basis_rows.conj() @ _vec(C.stack @ _density(C, vals).T).T


def mod_state_from_density(inc: Inclusion, i: int, rho) -> ModState:
    """The state x -> trace(rho p_i x p_i) at corner i, if rho(p_i) != 0."""
    rho = np.asarray(rho, dtype=complex)
    p = inc.min_projs[i]
    if abs(np.trace(rho @ p)) < STATE_TOL:
        raise SourceVanishes(f"no state at corner {i}: rho(p_{i}) = 0")
    vals = _functional(inc.C, (p @ rho @ p).T)
    return ModState(inclusion=inc, corner_index=i, values=vals)


def canonical_corner_state(inc: Inclusion, i: int) -> ModState:
    """The normalized-trace corner state (the unique one for scalar corners)."""
    p = inc.min_projs[i]
    return mod_state_from_density(inc, i, p / np.trace(p))


@dataclass(frozen=True)
class CornerDescriptor:
    """The corner algebra p_i C p_i and its extreme corner states when
    the corner is abelian."""

    corner_index: int
    algebra: FdStarAlgebra
    extreme_states: tuple  # of ModState; empty when corner non-abelian


def corner_algebra(inc: Inclusion, i: int) -> FdStarAlgebra:
    """p_i C p_i: the compressed corner Q_i* C Q_i, lifted by Q_i."""
    rows, r = inc._slice_spans[i, i], inc._ranks[i]
    Q = inc._ranges[i, :, :r]
    return _algebra_from_rows(
        inc.C.ambient_dim, _vec(Q @ rows.reshape(-1, r, r) @ Q.conj().T),
        inc.min_projs[i])


def mod_states(inc: Inclusion) -> tuple:
    """One CornerDescriptor per minimal projection of D."""
    out = []
    for i, A in enumerate(inc.corner_algebras):
        extremes = ()
        if A.is_abelian(RANK_TOL):
            qs = minimal_projections(A)
            extremes = tuple(
                mod_state_from_density(inc, i, q / np.trace(q)) for q in qs)
        out.append(CornerDescriptor(corner_index=i, algebra=A,
                                    extreme_states=extremes))
    return tuple(out)


# --- compatibility and invariance ---------------------------------------

def is_compatible_state(inc: Inclusion, rho: ModState, word_bound=None):
    """|rho(v)|^2 in {0, rho(v*v)} for every normalizer v, decided exactly:
    it holds iff rho is a character of A_i = p_i C p_i (i its corner).

    For a normalizer v, v p_i = c u with u in p_j C p_i, u*u = p_i and
    uu* = p_j (``Inclusion.regular``).  Hence rho(v) = 0 unless j = i, and
    then u is a unitary of A_i with rho(v*v) = |c|^2: characters are
    compatible.  Conversely every unitary u of A_i is a normalizer and
    U(A_i) is connected, so |rho(u)| in {0, 1} with rho(p_i) = 1 forces
    |rho(u)|^2 = 1 = rho(u*u) on all of U(A_i).  That puts every unitary
    in rho's multiplicative domain, and the unitaries span A_i.

    The test is the rank-one Gram rho(a*b) = conj(rho(a)) rho(b) on A_i's
    basis: the PSD defect has top eigenvalue lam <= ``STATE_TOL``.  Otherwise
    its eigenvector is an a with |a|_HS = 1 and rho(|a - rho(a)|^2) = lam,
    and h = a + a* or i(a* - a), whichever has the larger variance, has
    Var(h) >= lam.  With Delta <= 4 the width of h's spectrum on p_i, the
    witness u = exp(i pi h / (2 Delta)) in A_i has 1/rank p_i <=
    |rho(u)|^2 <= 1 - 2 Var(h)/Delta^2 <= rho(u*u) - lam/8.
    ``word_bound`` is accepted and not read.  Returns (True, None) or
    (False, u).
    """
    i = rho.corner_index
    A = inc.corner_algebras[i]
    r = A.basis_rows @ rho.density.ravel()  # rho on A's basis
    lam, vecs = np.linalg.eigh(_gram(A, r) - np.outer(r.conj(), r))
    if lam[-1] <= STATE_TOL:
        return True, None
    n = inc.C.ambient_dim
    a = (vecs[:, -1] @ A.basis_rows).reshape(n, n)
    h = max((a + a.conj().T, 1j * (a.conj().T - a)),
            key=lambda h: (rho(h @ h) - rho(h) ** 2).real)
    Q = inc._ranges[i, :, :inc._ranks[i]]
    spec, V = np.linalg.eigh(Q.conj().T @ h @ Q)
    W = Q @ V
    t = np.pi / (2 * (spec[-1] - spec[0]))
    return False, (W * np.exp(1j * t * spec)) @ W.conj().T


def _transport_reps(inc: Inclusion) -> dict:
    """{(i, j): u}, u in p_j C p_i with u*u = p_i and uu* = p_j, one per
    reachable corner pair: the corner slices when every corner is scalar,
    else u = p_i alone when every slice p_j C p_i, i != j, of equal ranks
    (as u needs) is 0; the first nonzero one is named in the refusal."""
    if inc.corner_slices is not None:
        return inc.corner_slices
    r = inc._ranks
    for (i, j), rows in inc._slice_spans.items():
        if i != j and r[i] == r[j] and len(rows):
            raise InvarianceUndecided("no partial isometry is built between "
                                      f"the non-scalar corners {i} and {j}")
    return {(i, i): p for i, p in enumerate(inc.min_projs)}


# --- pseudo-expectations -------------------------------------------------

@dataclass(frozen=True)
class PseudoExpectation:
    """E(x) = sum_i phi_i(p_i x p_i) p_i for corner states phi_i given by
    density matrices."""

    inclusion: Inclusion
    corner_densities: tuple  # density matrices, one per corner

    def apply(self, x) -> np.ndarray:
        """tr(rho_i p_i x p_i) = tr p_i sigma_i(x p_i rho_i), as p_i^2 = p_i:
        the diagonal of the characters of the stack x p_i rho_i."""
        inc = self.inclusion
        y = np.asarray(x, dtype=complex) @ inc._projs @ \
            np.array(self.corner_densities)
        c = np.diagonal(inc._chars(y)) * inc._ranks
        return np.tensordot(c, inc._projs, 1)


def canonical_expectation(inc: Inclusion) -> PseudoExpectation:
    dens = tuple(p / np.trace(p) for p in inc.min_projs)
    return PseudoExpectation(inclusion=inc, corner_densities=dens)


@dataclass(frozen=True)
class PseudoExpectationSet:
    """The convex set of pseudo-expectations, via its corner state spaces."""

    inclusion: Inclusion
    corners: tuple  # CornerDescriptor per corner
    unique: bool
    expectation: PseudoExpectation | None
    faithful: bool | None
    left_kernel: IdealSubspace | None  # L(C, D) of ``expectation``


def pseudo_expectations(inc: Inclusion) -> PseudoExpectationSet:
    """The set, and on scalar corners its one element, the canonical E.
    E is faithful on every inclusion, so L(C, D) = {0} with no null
    space: E(x*x) = sum_i (||x p_i||_HS^2 / tr p_i) p_i vanishes only when
    x p_i = 0 for every i, and then x = x sum_i p_i = 0."""
    corners = mod_states(inc)
    unique = inc.scalar_corners
    E = L = faithful = None
    if unique:
        E = canonical_expectation(inc)
        L, faithful = ideal_from_subspace(inc.C, inc.C.basis_rows[:0]), True
    return PseudoExpectationSet(inclusion=inc, corners=corners,
                                unique=unique, expectation=E,
                                faithful=faithful, left_kernel=L)


def _left_kernel_subspace(inc: Inclusion, E: PseudoExpectation) -> IdealSubspace:
    """{x in C : E(x* x) = 0}, as a subspace wrapped with central support.

    Since each phi_i is a state with density rho_i, E(x*x) = 0 iff
    x p_i rho_i^{1/2} = 0 for every corner, iff x p_i rho_i = 0 (rho_i^{1/2}
    and rho_i have the same range); this is a linear condition.  Taking no
    square root keeps rounding noise in rho_i's spectrum below the rank cut.
    """
    dens = inc._projs @ np.array(E.corner_densities)
    # row (r, k, l), column b: (b p_r rho_r)[k, l]
    K = (inc.C.stack[None] @ dens[:, None]).transpose(0, 2, 3, 1)
    K = K.reshape(-1, inc.C.dim)
    return ideal_from_subspace(inc.C, null_space(K) @ inc.C.basis_rows)


def left_kernel(inc: Inclusion, E: PseudoExpectation) -> IdealSubspace:
    """L(C, D) = {x : E(x*x) = 0}; an ideal for regular inclusions."""
    if not inc.regular:
        raise NotRegular("left kernel", inc._irregular_slice)
    return _left_kernel_subspace(inc, E)


def radical_ideal(inc: Inclusion, F,
                  check_invariance: bool = True) -> IdealSubspace:
    """K_F = {x : rho(x*x) = 0 for all rho in F}."""
    F = list(F)
    if not F:
        return ideal_from_subspace(inc.C, inc.C.basis_rows)
    if check_invariance and not _is_invariant(inc, F):
        raise NotInvariant("F is not invariant under the normalizer action")
    # sum over rho of the Grams rho(a* b): the Gram of the summed values
    gram = _gram(inc.C, np.sum([rho.values for rho in F], axis=0))
    total = 0.5 * (gram + gram.conj().T)
    # total is Hermitian PSD: its singular values are its eigenvalues
    return ideal_from_subspace(inc.C, null_space(total) @ inc.C.basis_rows)


def _is_invariant(inc: Inclusion, F) -> bool:
    """rho(v* . v)/rho(v*v) lies in F for every rho in F and every
    normalizer v with rho(v*v) > 0, decided exactly.

    As in ``is_compatible_state`` the transport is rho(u* . u) with u in
    p_j C p_i, u*u = p_i and uu* = p_j, and any other such u is u w with w
    a unitary of A_i.  So F is invariant iff every rho in F is tracial on
    its corner algebra (then rho(w* y w) = rho(y)) and rho(u* . u) lies in
    F for the one u per reachable pair of ``_transport_reps``: the orbit
    {rho(w* . w)} under the connected U(A_i) lies in the finite F, so it
    is {rho}, and the unitaries span A_i.

    The transports of all states by their u are one contraction of the
    stacked densities (``_transports``), each compared (``close_to``) with
    F's states at its target corner k only: any other state differs from
    it by 1 on p_k, so by >= n^(-3/2) on some basis element of C.
    """
    reps = _transport_reps(inc)
    F = list(F)
    for rho in F:
        A = inc.corner_algebras[rho.corner_index]
        # rho(x) = trace(w x); rho(a* b) - rho(b a*) over A's basis
        w = rho.density.T
        if np.abs(A.basis_rows.conj() @ _vec(
                A.stack @ w - w @ A.stack).T).max() > STATE_TOL:
            return False
    moves = [(rho.density, u, k) for rho in F
             for (i, k), u in reps.items() if i == rho.corner_index]
    if not moves:
        return True
    W, U, target = map(np.array, zip(*moves))
    moved = _transports(W, U)
    vals = _functional(inc.C, moved) / \
        np.trace(moved, axis1=1, axis2=2).real[:, None]
    known = np.array([rho.values for rho in F])
    m, s = np.nonzero(target[:, None] == [rho.corner_index for rho in F])
    near = np.abs(vals[m] - known[s]).max(axis=1) < STATE_TOL
    return bool(np.bincount(m[near], minlength=len(moves)).all())


def strongly_compatible(inc: Inclusion) -> tuple:
    """S_s(C, D) = {sigma_i o E} for the unique pseudo-expectation E."""
    if not inc.scalar_corners:
        raise NonUniquePseudoExpectation(
            "inclusion does not have the unique pseudo-expectation property")
    # E is the canonical expectation and the p_j are orthogonal, so
    # sigma_i(E(x)) = trace(p_i x p_i)/trace(p_i)
    return tuple(canonical_corner_state(inc, i)
                 for i in range(inc.n_corners))

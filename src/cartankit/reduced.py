"""Reduced C*-algebras of twisted finite groupoids.

The regular representation at a unit x acts on l^2 of the arrows with
source x; the full realization is the direct sum over one unit per
r-orbit (units in the same orbit give unitarily equivalent blocks).
At finite scale the diagonal conditional expectation is exactly
faithful: E(f* f)(x) = sum_{s(a)=x} |f(a)|^2.  The block structure and the
MASA test are read from orbit and isotropy data, not from commutants.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .matalg import (
    EPS,
    FdStarAlgebra,
    _algebra_from_rows,
    block_structure as algebra_blocks,
    operator_norm,
    row_span,
)
from .twist import (
    CocycleTwist,
    EquivariantFunction,
    _involution_values,
    _phases_at,
    unit_function,
)


def regular_representation(f: EquivariantFunction, x) -> np.ndarray:
    """Matrix of f on l^2 of the arrows with source x."""
    fiber = f.twist.groupoid.arrows_with_source(x)
    return _fill(f, _entries(f.twist, fiber), len(fiber))


def _entries(T: CocycleTwist, arrows) -> tuple:
    """Where the pairs land in a matrix on l^2 of ``arrows`` (a union of
    source fibers): pair (a, b) puts c_k(a, b) f(a) at row ab, column b.
    Returns (pair positions, rows, columns)."""
    t = T.groupoid.arrays
    order = np.fromiter((t.index[a] for a in arrows), np.intp)
    col = np.full(len(t.unit), -1)
    col[order] = np.arange(len(order))
    p = np.flatnonzero(col[t.b] >= 0)
    return p, col[t.ab[p]], col[t.b[p]]


def _fill(f: EquivariantFunction, entries, size: int) -> np.ndarray:
    p, rows, cols = entries
    M = np.zeros((size, size), dtype=complex)
    M[rows, cols] = f.twist.phases(f.degree)[p] * \
        f.values[f.twist.groupoid.arrays.a[p]]
    return M


def reduced_norm(f: EquivariantFunction) -> float:
    """max over units of the operator norm of the regular representation."""
    G = f.twist.groupoid
    return max(
        (operator_norm(regular_representation(f, x)) for x in
         G.orbit_representatives()),
        default=0.0)


@dataclass(frozen=True)
class ReducedAlgebra:
    """The reduced twisted groupoid C*-algebra, realized concretely.

    ``algebra`` is the span of the represented delta functions;
    ``diagonal`` is the canonical abelian subalgebra of functions
    supported on unit arrows.
    """

    twist: CocycleTwist
    degree: int
    orbit_reps: tuple
    fibers: tuple  # tuple of arrow tuples, one per orbit representative

    @cached_property
    def total_dim(self) -> int:
        return sum(len(f) for f in self.fibers)

    @cached_property
    def _fiber_entries(self) -> tuple:
        return _entries(self.twist, sum(self.fibers, ()))

    def represent(self, f: EquivariantFunction) -> np.ndarray:
        return _fill(f, self._fiber_entries, self.total_dim)

    @cached_property
    def _delta_images(self) -> np.ndarray:
        """Row g: the represented delta_g, flattened."""
        p, rows, cols = self._fiber_entries
        n, N = len(self.twist.groupoid.arrows), self.total_dim
        out = np.zeros((n, N, N), dtype=complex)
        out[self.twist.groupoid.arrays.a[p], rows, cols] = \
            self.twist.phases(self.degree)[p]
        return out.reshape(n, N * N)

    @cached_property
    def algebra(self) -> FdStarAlgebra:
        rows = row_span(self._delta_images)
        return _algebra_from_rows(self.total_dim, rows, self.unit_matrix,
                                  unit_is_ambient=True)

    @cached_property
    def diagonal(self) -> FdStarAlgebra:
        G = self.twist.groupoid
        units = [G.arrays.index[e] for e in G.unit_arrow.values()]
        rows = row_span(self._delta_images[units])
        return _algebra_from_rows(self.total_dim, rows, self.unit_matrix,
                                  unit_is_ambient=True)

    @cached_property
    def unit_matrix(self) -> np.ndarray:
        return self.represent(unit_function(self.twist, self.degree))

    def function_of(self, M: np.ndarray) -> EquivariantFunction:
        """Invert the representation on its image.  The delta images have
        disjoint supports, so they are HS-orthogonal and the orthogonal
        projection onto the image has coefficients <M, delta_g>/|delta_g|^2."""
        rows = self._delta_images
        coeffs = rows.conj() @ np.asarray(M, dtype=complex).ravel()
        return EquivariantFunction(self.twist, self.degree,
                                   coeffs / np.linalg.norm(rows, axis=1) ** 2)

    def block_structure(self) -> tuple:
        """Sorted block sizes of ``algebra``, read from orbit and isotropy
        data instead of a center computation.

        On the orbit of x with isotropy group H_x, the algebra is
        M_|orbit| tensor C*(H_x, sigma') with sigma' cohomologous to the
        restriction of sigma to H_x (Muhly-Renault-Williams equivalence), so
        the orbit gives the blocks |orbit| d_i, where the d_i are the block
        sizes of C*(H_x, sigma|H_x).  |orbit| = |s^-1(x)| / |H_x| on valid
        tables, as ``realize`` assumes.  A groupoid with no units realizes
        to the zero algebra, with no blocks.
        """
        if not self.orbit_reps:
            return ()
        t, n = self.twist.groupoid.arrays, len(self.twist.groupoid.arrows)
        src, rng = t.src[:n], t.rng[:n]
        loops = src == rng
        reps = np.array([t.unit_index[x] for x in self.orbit_reps],
                        dtype=np.intp)
        units = len(t.unit_index)
        orbit = np.bincount(src, minlength=units)[reps] // \
            np.bincount(src[loops], minlength=units)[reps]
        sizes = [k * np.array(_isotropy_blocks(
            self.twist, self.degree, np.flatnonzero(loops & (src == x))))
            for k, x in zip(orbit, reps)]
        return tuple(sorted(np.concatenate(sizes).tolist()))

    def delta_norms(self) -> np.ndarray:
        """reduced_norm of each delta_g, in arrow order: the largest
        operator norm of its orbit blocks."""
        N = self.total_dim
        imgs = self._delta_images.reshape(-1, N, N)
        out = np.zeros(len(imgs))
        end = 0
        for fiber in self.fibers:
            start, end = end, end + len(fiber)
            out = np.maximum(out, np.linalg.norm(
                imgs[:, start:end, start:end], 2, axis=(1, 2)))
        return out

    def expectation(self, f: EquivariantFunction) -> EquivariantFunction:
        """Restriction to the unit arrows (the canonical expectation)."""
        unit = self.twist.groupoid.arrays.unit
        return EquivariantFunction(self.twist, self.degree,
                                   np.where(unit, f.values, 0))

    def expectation_matrix(self, M: np.ndarray) -> np.ndarray:
        return self.represent(self.expectation(self.function_of(M)))


def realize(T: CocycleTwist, degree: int = 1) -> ReducedAlgebra:
    """Concrete realization of the reduced algebra in matrices."""
    G = T.groupoid
    reps = G.orbit_representatives()
    fibers = tuple(G.arrows_with_source(x) for x in reps)
    return ReducedAlgebra(twist=T, degree=degree, orbit_reps=reps,
                          fibers=fibers)


def _isotropy_blocks(T: CocycleTwist, degree: int, h: np.ndarray) -> tuple:
    """Block sizes of C*(H, c_k|H) for the isotropy group H on the arrow
    numbers h: (1,) for the trivial group without any linear algebra,
    otherwise the generic split of its left-regular realization on l^2(H),
    where delta_a sends delta_b to c_k(a, b) delta_ab."""
    m = len(h)
    if m == 1:
        return (1,)
    local = np.zeros(len(T.groupoid.arrays.unit), dtype=np.intp)
    local[h] = np.arange(m)
    a, b = h[:, None], h[None, :]
    L = np.zeros((m, m, m), dtype=complex)
    L[np.arange(m)[:, None], local[T.groupoid.arrays.compose(a, b)],
      np.arange(m)] = _phases_at(T, degree, a, b)
    return algebra_blocks(_algebra_from_rows(
        m, L.reshape(m, m * m), np.eye(m, dtype=complex)))


def groupoid_inclusion(R: ReducedAlgebra):
    """The inclusion (realized algebra, diagonal) with delta normalizers."""
    from .inclusion import make_inclusion
    N = R.total_dim
    return make_inclusion(R.algebra, R.diagonal,
                          list(R._delta_images.reshape(-1, N, N)))


@dataclass(frozen=True)
class CartanCertificate:
    """Evidence that the diagonal sits as a Cartan subalgebra."""

    diagonal_is_masa: bool
    regular: bool
    expectation_faithful: bool
    masa_defect: int  # dim of the relative commutant minus dim of diagonal

    @property
    def is_cartan(self) -> bool:
        return (self.diagonal_is_masa and self.regular
                and self.expectation_faithful)


def _normalizes(D: FdStarAlgebra, V: np.ndarray) -> bool:
    """v d v* and v* d v lie in D, as ``D.contains(m, 1e-7)`` decides, for
    every v of the stack V and every basis element d of D."""
    Vh = V.conj().transpose(0, 2, 1)
    return all(D.contains_all(V @ d @ Vh, 1e-7) and
               D.contains_all(Vh @ d @ V, 1e-7) for d in D.stack)


def is_cartan_pair(R: ReducedAlgebra, eps: float = EPS) -> CartanCertificate:
    """Certify (or refute) that the diagonal is Cartan in the realization.

    The MASA test is exact, read from the tables.  For a unit x,
    delta_x delta_g = delta_g if r(g) = x and 0 otherwise, and
    delta_g delta_x = delta_g if s(g) = x and 0 otherwise (sigma is
    normalized), so delta_g commutes with every delta_x exactly when
    s(g) = r(g).  The delta images have disjoint matrix-unit supports and
    the realization is faithful, so sum_g f(g) delta_g commutes with D
    exactly when each of its terms does:
    D' cap C = span{delta_g : g in Iso(G)}, of dimension |Iso(G)|.  Hence
    ``masa_defect`` = |Iso(G)| - |G^0|, and D is a MASA exactly when it is 0,
    i.e. when G is principal, whatever the twist.

    Regularity and faithfulness hold structurally for groupoid models but
    are re-verified numerically.
    """
    t, n = R.twist.groupoid.arrays, len(R.twist.groupoid.arrows)
    defect = int(np.count_nonzero(t.src[:n] == t.rng[:n])) - \
        len(R.twist.groupoid.units)
    masa = defect == 0
    D = R.diagonal

    # regularity: each delta normalizes the diagonal and deltas span
    N = R.total_dim
    regular = _normalizes(D, R._delta_images.reshape(-1, N, N))

    # faithfulness of E: the sesquilinear form sum_x E(f* g)(x) must be
    # positive definite; exact at finite scale.  Row i of the Gram matrix
    # is delta_i^* times the part of the convolution landing on units.
    on_unit = t.unit[t.ab]
    Q = np.zeros((n, n), dtype=complex)
    Q[t.a[on_unit], t.b[on_unit]] = R.twist.phases(R.degree)[on_unit]
    gram = _involution_values(R.twist, R.degree, np.eye(n)) @ Q
    evals = np.linalg.eigvalsh(0.5 * (gram + gram.conj().T))
    faithful = bool(evals.min() > eps)
    return CartanCertificate(diagonal_is_masa=masa, regular=regular,
                             expectation_faithful=faithful,
                             masa_defect=defect)

"""Reduced C*-algebras of twisted finite groupoids.

The regular representation at a unit x acts on l^2 of the arrows with
source x; the full realization is the direct sum over one unit per
r-orbit (units in the same orbit give unitarily equivalent blocks).
At finite scale the diagonal conditional expectation is exactly
faithful: E(f* f)(x) = sum_{s(a)=x} |f(a)|^2.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import UnknownUnit
from .matalg import (
    EPS,
    FdStarAlgebra,
    _algebra_from_rows,
    _vec,
    operator_norm,
    relative_commutant,
    row_span,
)
from .twist import (
    CocycleTwist,
    EquivariantFunction,
    convolve,
    delta,
    involution,
    unit_function,
)


def regular_representation(f: EquivariantFunction, x) -> np.ndarray:
    """Matrix of f on l^2 of the arrows with source x."""
    T = f.twist
    G = T.groupoid
    if x not in G.unit_arrow:
        raise UnknownUnit(f"unknown unit {x!r}")
    fiber = G.arrows_with_source(x)
    return _block(f, fiber)


def _block(f: EquivariantFunction, fiber) -> np.ndarray:
    T = f.twist
    G = T.groupoid
    m = len(fiber)
    M = np.zeros((m, m), dtype=complex)
    idx = f.twist.arrow_index
    for j, b in enumerate(fiber):
        ib = G.inv[b]
        for i, a in enumerate(fiber):
            ab = G.compose(a, ib)  # arrow with source r(b)
            if ab is None:
                continue
            val = f.values[idx[ab]]
            if val != 0:
                M[i, j] = T.c(f.degree, ab, b) * val
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
    def _offsets(self) -> tuple:
        offs, acc = [], 0
        for f in self.fibers:
            offs.append(acc)
            acc += len(f)
        return tuple(offs)

    def represent(self, f: EquivariantFunction) -> np.ndarray:
        N = self.total_dim
        M = np.zeros((N, N), dtype=complex)
        for off, fiber in zip(self._offsets, self.fibers):
            m = len(fiber)
            M[off:off + m, off:off + m] = _block(f, fiber)
        return M

    @cached_property
    def _delta_images(self) -> np.ndarray:
        arrows = self.twist.groupoid.arrows
        return _vec([self.represent(delta(self.twist, self.degree, a))
                     for a in arrows])

    @cached_property
    def algebra(self) -> FdStarAlgebra:
        rows = row_span(self._delta_images)
        return _algebra_from_rows(self.total_dim, rows, self.unit_matrix,
                                  unit_is_ambient=True)

    @cached_property
    def diagonal(self) -> FdStarAlgebra:
        units = self.twist.groupoid.unit_arrow.values()
        mats = [self.represent(delta(self.twist, self.degree, e))
                for e in units]
        rows = row_span(_vec(mats))
        return _algebra_from_rows(self.total_dim, rows, self.unit_matrix,
                                  unit_is_ambient=True)

    @cached_property
    def unit_matrix(self) -> np.ndarray:
        return self.represent(unit_function(self.twist, self.degree))

    def function_of(self, M: np.ndarray, eps: float = EPS) -> EquivariantFunction:
        """Invert the representation on its image (least squares)."""
        rows = self._delta_images
        coeffs, *_ = np.linalg.lstsq(rows.T, np.asarray(M, dtype=complex).ravel(),
                                     rcond=None)
        return EquivariantFunction(self.twist, self.degree, coeffs)

    def expectation(self, f: EquivariantFunction) -> EquivariantFunction:
        """Restriction to the unit arrows (the canonical expectation)."""
        G = self.twist.groupoid
        idx = self.twist.arrow_index
        vals = np.zeros_like(f.values)
        for e in G.unit_arrow.values():
            vals[idx[e]] = f.values[idx[e]]
        return EquivariantFunction(self.twist, self.degree, vals)

    def expectation_matrix(self, M: np.ndarray) -> np.ndarray:
        return self.represent(self.expectation(self.function_of(M)))


def realize(T: CocycleTwist, degree: int = 1) -> ReducedAlgebra:
    """Concrete realization of the reduced algebra in matrices."""
    G = T.groupoid
    reps = G.orbit_representatives()
    fibers = tuple(G.arrows_with_source(x) for x in reps)
    return ReducedAlgebra(twist=T, degree=degree, orbit_reps=reps,
                          fibers=fibers)


def groupoid_inclusion(R: ReducedAlgebra):
    """The inclusion (realized algebra, diagonal) with delta normalizers."""
    from .inclusion import make_inclusion
    gens = [R.represent(delta(R.twist, R.degree, a))
            for a in R.twist.groupoid.arrows]
    return make_inclusion(R.algebra, R.diagonal, gens)


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


def is_cartan_pair(R: ReducedAlgebra, eps: float = EPS) -> CartanCertificate:
    """Certify (or refute) that the diagonal is Cartan in the realization.

    Regularity and faithfulness hold structurally for groupoid models but
    are re-verified numerically; the MASA property genuinely depends on the
    isotropy of the groupoid and the twist.
    """
    A = R.algebra
    D = R.diagonal
    comm = relative_commutant(D, A, eps)
    masa = comm.subspace_equals(D, max(eps, 1e-7))
    defect = comm.dim - D.dim

    # regularity: each delta normalizes the diagonal and deltas span
    G = R.twist.groupoid
    regular = True
    for a in G.arrows:
        v = R.represent(delta(R.twist, R.degree, a))
        for d in D.basis:
            if not D.contains(v @ d @ v.conj().T, 1e-7):
                regular = False
            if not D.contains(v.conj().T @ d @ v, 1e-7):
                regular = False

    # faithfulness of E: the sesquilinear form sum_x E(f* g)(x) must be
    # positive definite; exact at finite scale
    arrows = G.arrows
    unit_idx = [R.twist.arrow_index[e] for e in G.unit_arrow.values()]
    gram = np.zeros((len(arrows), len(arrows)), dtype=complex)
    deltas = [delta(R.twist, R.degree, a) for a in arrows]
    stars = [involution(d) for d in deltas]
    for i in range(len(arrows)):
        for j in range(len(arrows)):
            ee = R.expectation(convolve(stars[i], deltas[j]))
            gram[i, j] = np.sum(ee.values[unit_idx])
    evals = np.linalg.eigvalsh(0.5 * (gram + gram.conj().T))
    faithful = bool(evals.min() > eps)
    return CartanCertificate(diagonal_is_masa=masa, regular=regular,
                             expectation_faithful=faithful,
                             masa_defect=defect)

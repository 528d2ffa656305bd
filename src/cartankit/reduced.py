"""Reduced C*-algebras of twisted finite groupoids.

The regular representation at a unit x acts on l^2 of the arrows with
source x; the full realization is the direct sum over one unit per
r-orbit (units in the same orbit give unitarily equivalent blocks).
At finite scale the diagonal conditional expectation is exactly
faithful: E(f* f)(x) = sum_{s(a)=x} |f(a)|^2.  The block structure and the
MASA test are read from orbit and isotropy data, not from commutants, and
regularity and faithfulness of the diagonal from the tables.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .errors import EmptyAlgebra, OutsideFibers
from .matalg import (
    EPS,
    NORMALIZER_TOL,
    FdStarAlgebra,
    _rank_of,
    block_structure as algebra_blocks,
    operator_norm,
    row_span,
)
from .twist import (
    CocycleTwist,
    EquivariantFunction,
    _phases_at,
    unit_function,
)


def regular_representation(f: EquivariantFunction, x) -> np.ndarray:
    """Matrix of f on l^2 of the arrows with source x."""
    t = f.twist.groupoid.arrays
    fiber = _numbered(t, f.twist.groupoid.arrows_with_source(x))
    return _fill(f, _entries(t, fiber), len(fiber))


def _numbered(t, arrows) -> np.ndarray:
    """The arrow numbers of the named arrows."""
    return np.fromiter(map(t.index.__getitem__, arrows), np.intp,
                       len(arrows))


def _entries(t, order: np.ndarray) -> tuple:
    """Where the pairs land in a matrix on l^2 of the arrows numbered
    ``order`` (a union of source fibers): pair (a, b) puts c_k(a, b) f(a)
    at row ab, column b.  Returns (pair positions, rows, columns)."""
    col = np.full(len(t.unit), -1)
    col[order] = np.arange(len(order))
    p = np.flatnonzero(col[t.b] >= 0)
    return p, col[t.ab[p]], col[t.b[p]]


def _fill(f: EquivariantFunction, entries, size: int) -> np.ndarray:
    p, rows, cols = entries
    if (rows < 0).any():  # a pair off the fibers: numpy reads -1 as last
        raise OutsideFibers("a product leaves the realized fibers")
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
    def _fiber_arrows(self) -> np.ndarray:
        """The arrow number at each position of the fibers."""
        return _numbered(self.twist.groupoid.arrays, sum(self.fibers, ()))

    @cached_property
    def _fiber_entries(self) -> tuple:
        return _entries(self.twist.groupoid.arrays, self._fiber_arrows)

    def represent(self, f: EquivariantFunction) -> np.ndarray:
        return _fill(f, self._fiber_entries, self.total_dim)

    @cached_property
    def _pattern(self) -> tuple:
        """(arrow, row, column, phase) of each fiber entry, refused unless
        each delta_g is a partial isometry pattern: distinct rows (its
        columns are distinct, one per pair (g, b)), its columns exactly the
        positions of range s(g) and its rows exactly those of range r(g),
        and unit arrows on the diagonal."""
        t, arrows = self.twist.groupoid.arrays, self._fiber_arrows
        p, rows, cols = self._fiber_entries
        g, at = t.a[p], t.rng[arrows]  # at: the range of each position
        n = len(t.index)
        keys = np.sort(g * len(arrows) + rows)
        if ((rows >= 0).all() and (rows == cols)[t.unit[g]].all()
                and (at[rows] == t.rng[g]).all()
                and (at[cols] == t.src[g]).all()
                and not (keys[1:] == keys[:-1]).any()):
            # g is listed now (an unlisted arrow has ends -1)
            per_range = np.bincount(at, minlength=len(t.unit_index))
            count = np.bincount(g, minlength=n)
            if (per_range[[t.src[:n], t.rng[:n]]] == count).all():
                return g, rows, cols, self.twist.phases(self.degree)[p]
        raise OutsideFibers("the deltas are no partial isometry pattern")

    @cached_property
    def algebra(self) -> FdStarAlgebra:
        """The delta images from ``_pattern``, normalized: refused unless
        their supports are disjoint, so that their HS norms are their
        singular values, and each norm passes ``row_span``'s rank cut."""
        g, rows, cols, phase = self._pattern
        n, N = len(self.twist.groupoid.arrows), self.total_dim
        keys = np.sort(rows * N + cols)
        norm = np.sqrt(np.bincount(g, np.abs(phase) ** 2, n))
        if (keys[1:] == keys[:-1]).any() or _rank_of(-np.sort(-norm)) < n:
            raise OutsideFibers("two realized deltas overlap, or one vanishes")
        basis = np.zeros((n, N * N), dtype=complex)
        basis[g, rows * N + cols] = phase / norm[g]
        return FdStarAlgebra(N, basis, self.unit_matrix)

    @cached_property
    def diagonal(self) -> FdStarAlgebra:
        """The unit-arrow rows of ``algebra``."""
        A, unit = self.algebra, self.twist.groupoid.arrays.unit
        return replace(A, basis_rows=A.basis_rows[unit[:A.dim]])

    @cached_property
    def unit_matrix(self) -> np.ndarray:
        return self.represent(unit_function(self.twist, self.degree))

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
        """reduced_norm of each delta_g, in arrow order: the operator norm
        of its image, the largest of its orbit blocks' on valid tables.
        Under ``_pattern`` the image has at most one entry per row and per
        column, so that norm is its largest |entry|."""
        g, _, _, phase = self._pattern
        out = np.zeros(len(self.twist.groupoid.arrows))
        np.maximum.at(out, g, np.abs(phase))
        return out

    def expectation(self, f: EquivariantFunction) -> EquivariantFunction:
        """Restriction to the unit arrows (the canonical expectation)."""
        unit = self.twist.groupoid.arrays.unit
        return EquivariantFunction(self.twist, self.degree,
                                   np.where(unit, f.values, 0))


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
    return algebra_blocks(FdStarAlgebra(m, row_span(L.reshape(m, m * m)),
                                        np.eye(m, dtype=complex)))


def groupoid_inclusion(R: ReducedAlgebra):
    """The inclusion (algebra, diagonal), normalized by the deltas."""
    from .inclusion import make_inclusion
    return make_inclusion(R.algebra, R.diagonal, list(R.algebra.stack))


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


def is_cartan_pair(R: ReducedAlgebra) -> CartanCertificate:
    """Certify (or refute) that the diagonal is Cartan in the realization,
    from the tables and the realization's entries, with no matrix built.

    MASA.  For a unit x, delta_x delta_g = delta_g if r(g) = x and 0
    otherwise, and delta_g delta_x = delta_g if s(g) = x and 0 otherwise
    (sigma is normalized), so delta_g commutes with every delta_x exactly
    when s(g) = r(g).  The delta images have disjoint matrix-unit supports
    and the realization is faithful, so sum_g f(g) delta_g commutes with D
    exactly when each of its terms does:
    D' cap C = span{delta_g : g in Iso(G)}, of dimension |Iso(G)|.  Hence
    ``masa_defect`` = |Iso(G)| - |G^0|, and D is a MASA exactly when it is
    0, i.e. when G is principal, whatever the twist.

    Regularity: the deltas span C, so it holds when each delta_g
    normalizes D.  First each delta_g is checked to be a partial isometry
    pattern (``ReducedAlgebra._pattern``; tables that fail are not
    certified).
    Then d_y = delta_y is diagonal with u_i (the phase of the unit entry at
    i) at the positions i of range y; the nonzero d_y have disjoint
    supports, so normalized to e_y they are an orthonormal basis of D.
    delta_g e_x delta_g* is 0 unless x = s(g), and delta_g e_s(g) delta_g*
    is diagonal with |c_k(g, b)|^2 e_s(g)(b) at gb for each realized b with
    r(b) = s(g): supported on range r(g), so its distance from D is its
    distance from C u there.  delta_g* e_r(g) delta_g is the mirror case.
    Both distances are summed per arrow and cut at ``NORMALIZER_TOL``.

    Faithfulness: E is faithful exactly when the Gram E(delta_g* delta_h)
    is positive definite.  As delta_g* = conj(c_k(g^-1, g)) delta_g^-1, its
    (g, h) entry is conj(c_k(g^-1, g)) c_k(g^-1, h) when the pair
    (g^-1, h) lands on a unit and 0 otherwise.  If every pair (a, b)
    landing on a unit has b = a^-1, the Gram is diagonal, with
    |c_k(a, b)|^2 at (b, b), and E is faithful exactly when each diagonal
    entry exceeds ``EPS``.  Tables on which another pair lands on a unit
    are not certified.
    """
    if not R.total_dim:
        raise EmptyAlgebra()
    t, n = R.twist.groupoid.arrays, len(R.twist.groupoid.arrows)
    defect = int(np.count_nonzero(t.src[:n] == t.rng[:n])) - \
        len(R.twist.groupoid.units)
    phases = R.twist.phases(R.degree)
    on = np.flatnonzero(t.unit[t.ab])  # the pairs landing on a unit
    gram = np.bincount(t.b[on], np.abs(phases[on]) ** 2, n)[:n]
    try:
        regular = _deltas_normalize(t, R._fiber_arrows, *R._pattern)
    except OutsideFibers:
        regular = False
    return CartanCertificate(
        diagonal_is_masa=defect == 0,
        regular=regular,
        expectation_faithful=bool((t.inv[t.a[on]] == t.b[on]).all()
                                  and (gram > EPS).all()),
        masa_defect=defect)


def _deltas_normalize(t, arrows, g, rows, cols, phase) -> bool:
    """The rest of ``is_cartan_pair``'s regularity test: entry e of delta_g
    (g = g[e]) is phase[e] at (rows[e], cols[e]); position i has arrows[i]."""
    at = t.rng[arrows]  # the range of each position
    size, unit = len(arrows), t.unit[g]
    u = np.zeros(size, dtype=complex)
    u[cols[unit]] = phase[unit]
    norm2 = np.bincount(at, np.abs(u) ** 2, len(t.unit_index))[at]
    inv_norm2 = np.divide(1.0, norm2, out=np.zeros(size), where=norm2 > 0)
    e = u * np.sqrt(inv_norm2)  # e_y at the positions of range y
    weight = np.abs(phase) ** 2
    for to, frm in ((rows, cols), (cols, rows)):
        w = weight * e[frm]
        x = u[to].conj() * w * inv_norm2[to]  # <u, w> / |u|^2, per entry
        coef = np.bincount(g, x.real) + 1j * np.bincount(g, x.imag)
        resid = np.abs(w - coef[g] * u[to]) ** 2
        if not (np.sqrt(np.bincount(g, resid)) < NORMALIZER_TOL).all():
            return False
    return True

"""Twists over finite groupoids and their convolution *-algebras.

A twist is stored as a normalized T-valued 2-cocycle sigma on the
composable pairs, keyed by arrow-id pairs and, for computing, as a vector
over the groupoid's pair arrays (``FiniteGroupoid.arrays``); a twist built
from such a vector keeps sigma as a read-only view of it.  Convolution,
involution and transpose are gathers and scatters over those arrays.
Degree-k functions (k in {-1, +1}) multiply with the structure phases
c_k, where c_1 = sigma and c_{-1} = conj(sigma); both degrees carry
genuine convolution *-algebras and are exchanged by the transpose map.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    DegreeMismatch,
    FactorizationPropertyFails,
    SigmaUndefined,
    TwistMismatch,
    UnknownArrow,
)
from .groupoid import (
    FiniteGroupoid,
    _PairTable,
    _is_view,
    _triple_checks,
    _violations,
    restrict_groupoid,
)
from .matalg import COCYCLE_TOL


@dataclass(frozen=True)
class CocycleTwist:
    """A normalized circle-valued 2-cocycle over a finite groupoid."""

    groupoid: FiniteGroupoid
    sigma: Mapping  # (a, b) -> complex of modulus 1, keyed by composable pairs

    @cached_property
    def sigma_vector(self) -> np.ndarray:
        """sigma at each pair of ``groupoid.arrays``, in pair order."""
        pairs = self.groupoid.arrays.pairs
        try:
            return np.fromiter(map(self.sigma.__getitem__, pairs), complex,
                               len(pairs))
        except KeyError as exc:
            raise SigmaUndefined("sigma is not defined at the composable "
                                 f"pair {exc.args[0]!r}") from None

    def phases(self, k: int) -> np.ndarray:
        """Structure phases c_k of degree-k multiplication, per pair."""
        return self.sigma_vector if k == 1 else self.sigma_vector.conj()

    @property
    def arrow_index(self) -> dict:
        """The groupoid's arrow numbering, ``groupoid.arrays.index``."""
        return self.groupoid.arrays.index


def _with_phases(G: FiniteGroupoid, phases) -> CocycleTwist:
    """The twist with sigma = phases at ``G.arrays.pairs``: the vector is
    its ``sigma_vector``, and sigma a view of it."""
    phases = np.asarray(phases, dtype=complex)
    T = CocycleTwist(groupoid=G, sigma=_PairTable(G.arrays, phases))
    T.__dict__["sigma_vector"] = phases
    return T


def trivial_twist(G: FiniteGroupoid) -> CocycleTwist:
    return _with_phases(G, np.ones(len(G.arrays.a), dtype=complex))


def conjugate_twist(T: CocycleTwist) -> CocycleTwist:
    return _with_phases(T.groupoid, T.phases(-1))


def validate_cocycle(T: CocycleTwist, tol: float = COCYCLE_TOL) -> list:
    """Check normalization, modulus one, and the 2-cocycle identity.

    On invalid groupoid tables, a triple whose identity names a pair
    outside the table is reported as undefined (``groupoid.validate``
    says which entry is wrong)."""
    head, s = _sigma_lines(T, tol)
    if s is None:
        return head
    return head + _triple_checks(
        T.groupoid.arrays, s, tol,
        tables_hold=not (head or T.groupoid.axiom_violations))[1]


def validate_twist(T: CocycleTwist) -> list:
    """``validate(T.groupoid) + validate_cocycle(T)``, from one pass over
    the triples (those of a generating set, when they decide:
    ``groupoid._triple_checks``)."""
    axioms = T.groupoid.axiom_violations
    head, s = _sigma_lines(T, COCYCLE_TOL)
    assoc, cocycle = _triple_checks(T.groupoid.arrays, s, COCYCLE_TOL,
                                    tables_hold=not (axioms or head))
    return axioms + assoc + head + cocycle


def _sigma_lines(T: CocycleTwist, tol: float) -> tuple:
    """(the pairwise sigma violations, the phase vector), or the keying
    violation and None when sigma is not keyed by the composable pairs
    (which a view over the groupoid's own pairs is)."""
    t, sigma = T.groupoid.arrays, T.sigma
    if not _is_view(sigma, t) and (len(sigma) != len(t.a) or not all(
            map(sigma.__contains__, t.pairs))):
        return ["sigma is not keyed exactly by the composable pairs"], None
    s = T.sigma_vector
    p = np.arange(len(s))
    return _violations([
        ("sigma({a!r},{b!r}) has modulus {m:.3g} != 1",
         p[np.abs(np.abs(s) - 1.0) > tol]),
        ("sigma not normalized at unit pair ({a!r},{b!r})",
         p[(t.unit[t.a] | t.unit[t.b]) & (np.abs(s - 1.0) > tol)]),
    ], lambda q: {"a": t.names[t.a[q]], "b": t.names[t.b[q]],
                  "m": np.abs(s[q])}), s


@dataclass(frozen=True)
class EquivariantFunction:
    """A degree-k function on the arrows, stored as a coefficient vector
    aligned with ``twist.groupoid.arrows``."""

    twist: CocycleTwist
    degree: int
    values: np.ndarray

    def __post_init__(self):
        if self.degree not in (-1, 1):
            raise DegreeMismatch(f"degree must be +-1, got {self.degree}")
        v = np.asarray(self.values, dtype=complex)
        if v.shape != (len(self.twist.groupoid.arrows),):
            raise UnknownArrow(
                f"value vector has shape {v.shape}, expected "
                f"({len(self.twist.groupoid.arrows)},)")
        object.__setattr__(self, "values", v)

    def __getitem__(self, arrow) -> complex:
        return complex(self.values[self.twist.groupoid.arrays.index[arrow]])

    def _like(self, values) -> "EquivariantFunction":
        return EquivariantFunction(self.twist, self.degree,
                                   np.asarray(values, dtype=complex))

    # pointwise linear structure
    def __add__(self, other):
        _check_same(self, other)
        return self._like(self.values + other.values)

    def __sub__(self, other):
        _check_same(self, other)
        return self._like(self.values - other.values)

    def __mul__(self, scalar):
        return self._like(self.values * complex(scalar))

    __rmul__ = __mul__

    def __neg__(self):
        return self._like(-self.values)


def _check_same(f: EquivariantFunction, g: EquivariantFunction):
    if f.twist.sigma is not g.twist.sigma and f.twist.sigma != g.twist.sigma:
        raise TwistMismatch("functions live over different twists")
    if f.degree != g.degree:
        raise DegreeMismatch(
            f"degrees differ: {f.degree} vs {g.degree}")


def function(T: CocycleTwist, degree: int, assignments: dict) -> EquivariantFunction:
    """Build a function from a sparse {arrow: value} dict."""
    index = T.groupoid.arrays.index
    vals = np.zeros(len(T.groupoid.arrows), dtype=complex)
    for a, z in assignments.items():
        if a not in index:
            raise UnknownArrow(f"unknown arrow {a!r}")
        vals[index[a]] = z
    return EquivariantFunction(T, degree, vals)


def delta(T: CocycleTwist, degree: int, arrow) -> EquivariantFunction:
    return function(T, degree, {arrow: 1.0})


def unit_function(T: CocycleTwist, degree: int) -> EquivariantFunction:
    """The convolution identity: indicator of the (listed) unit arrows."""
    G = T.groupoid
    return EquivariantFunction(T, degree, G.arrays.unit[:len(G.arrows)])


def _convolve_values(T: CocycleTwist, degree: int, f, g) -> np.ndarray:
    """(f * g)(c) = sum_{ab = c} c_k(a, b) f(a) g(b) on value arrays
    (..., n), broadcast over their leading axes: the pair terms, in
    product order (``product_runs``), summed run by run."""
    t, n = T.groupoid.arrays, len(T.groupoid.arrows)
    q, a, b, starts, hit = t.product_runs
    w = T.phases(degree)[q] * f[..., a] * g[..., b]
    if len(starts) == n:
        return np.add.reduceat(w, starts, axis=-1)
    out = np.zeros(w.shape[:-1] + (n,), dtype=complex)
    if len(starts):
        out[..., hit] = np.add.reduceat(w, starts, axis=-1)
    return out


def _involution_values(T: CocycleTwist, degree: int, f) -> np.ndarray:
    t = T.groupoid.arrays
    return np.conj(T.phases(degree)[t.inv_pair]) * np.conj(f[..., t.inv])


def convolve(f: EquivariantFunction, g: EquivariantFunction) -> EquivariantFunction:
    """(f * g)(c) = sum_{ab = c} c_k(a, b) f(a) g(b)."""
    _check_same(f, g)
    return EquivariantFunction(
        f.twist, f.degree, _convolve_values(f.twist, f.degree, f.values,
                                            g.values))


def involution(f: EquivariantFunction) -> EquivariantFunction:
    """f*(a) = conj(c_k(a, a^-1)) conj(f(a^-1))."""
    return EquivariantFunction(
        f.twist, f.degree, _involution_values(f.twist, f.degree, f.values))


def transpose(f: EquivariantFunction) -> EquivariantFunction:
    """Linear anti-multiplicative *-map into the opposite degree:
    tau(f)(a) = c_k(a, a^-1) f(a^-1)."""
    t = f.twist.groupoid.arrays
    return EquivariantFunction(
        f.twist, -f.degree,
        f.twist.phases(f.degree)[t.inv_pair] * f.values[t.inv])


def restrict_twist(T: CocycleTwist, H) -> CocycleTwist:
    """Restriction of the twist to a subgroupoid's arrow set.

    Requires the factorization property, so that pointwise restriction of
    functions is a *-epimorphism onto the subtwist algebra.
    """
    from .groupoid import has_factorization_property
    if not has_factorization_property(T.groupoid, H):
        raise FactorizationPropertyFails(
            "arrow subset admits factorizations leaving it")
    GH = restrict_groupoid(T.groupoid, H)
    t, th = T.groupoid.arrays, GH.arrays
    to_g = np.array([t.index[a] for a in GH.arrows], dtype=np.intp)
    return _with_phases(GH, _phases_at(T, 1, to_g[th.a], to_g[th.b]))


def _phases_at(T: CocycleTwist, degree: int, x, y) -> np.ndarray:
    """c_k at the pairs (x, y) of arrow numbers (broadcast), each of
    which must compose."""
    return T.phases(degree)[T.groupoid.arrays.pair_at[x, y]]

"""Twists over finite groupoids and their convolution *-algebras.

A twist is stored as a normalized T-valued 2-cocycle sigma on the
composable pairs.  Degree-k functions (k in {-1, +1}) multiply with the
structure phases c_k, where c_1 = sigma and c_{-1} = conj(sigma); both
degrees carry genuine convolution *-algebras and are exchanged by the
transpose map.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    DegreeMismatch,
    FactorizationPropertyFails,
    TwistMismatch,
    UnknownArrow,
)
from .groupoid import FiniteGroupoid, restrict_groupoid

#: Tolerance for the cocycle identity and normalization.
COCYCLE_TOL = 1e-12


@dataclass(frozen=True)
class CocycleTwist:
    """A normalized circle-valued 2-cocycle over a finite groupoid."""

    groupoid: FiniteGroupoid
    sigma: dict  # (a, b) -> complex of modulus 1, keyed by composable pairs

    def value(self, a, b) -> complex:
        try:
            return self.sigma[(a, b)]
        except KeyError:
            raise UnknownArrow(f"pair ({a!r}, {b!r}) is not composable")

    def c(self, k: int, a, b) -> complex:
        """Structure phase for degree-k multiplication."""
        v = self.value(a, b)
        return v if k == 1 else np.conj(v)

    def weight(self, k: int, a) -> complex:
        """Involution phase w_k(a) = conj(c_k(a, a^-1))."""
        return np.conj(self.c(k, a, self.groupoid.inv[a]))

    @cached_property
    def arrow_index(self) -> dict:
        return {a: i for i, a in enumerate(self.groupoid.arrows)}


def trivial_twist(G: FiniteGroupoid) -> CocycleTwist:
    sigma = {pair: 1.0 + 0.0j for pair in G.compose_table}
    return CocycleTwist(groupoid=G, sigma=sigma)


def coboundary_twist(G: FiniteGroupoid, lam: dict) -> CocycleTwist:
    """sigma(a, b) = lam(a) lam(b) / lam(ab) for a modulus-one lam with
    lam = 1 on unit arrows; always a normalized cocycle."""
    sigma = {}
    for (a, b), ab in G.compose_table.items():
        sigma[(a, b)] = lam[a] * lam[b] / lam[ab]
    return CocycleTwist(groupoid=G, sigma=sigma)


def conjugate_twist(T: CocycleTwist) -> CocycleTwist:
    return CocycleTwist(groupoid=T.groupoid,
                        sigma={k: np.conj(v) for k, v in T.sigma.items()})


def validate_cocycle(T: CocycleTwist, tol: float = COCYCLE_TOL) -> list:
    """Check normalization, modulus one, and the 2-cocycle identity."""
    G = T.groupoid
    bad = []
    if set(T.sigma) != set(G.compose_table):
        bad.append("sigma is not keyed exactly by the composable pairs")
        return bad
    for (a, b), v in T.sigma.items():
        if abs(abs(v) - 1.0) > tol:
            bad.append(f"sigma({a!r},{b!r}) has modulus {abs(v):.3g} != 1")
        if (G.is_unit_arrow(a) or G.is_unit_arrow(b)) and abs(v - 1.0) > tol:
            bad.append(f"sigma not normalized at unit pair ({a!r},{b!r})")
    for (a, b), ab in G.compose_table.items():
        for c in G.arrows:
            if G.src[b] != G.rng[c]:
                continue
            bc = G.compose_table[(b, c)]
            lhs = T.sigma[(a, b)] * T.sigma[(ab, c)]
            rhs = T.sigma[(b, c)] * T.sigma[(a, bc)]
            if abs(lhs - rhs) > tol:
                bad.append(f"cocycle identity fails at ({a!r},{b!r},{c!r})")
    return bad


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
        return complex(self.values[self.twist.arrow_index[arrow]])

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
    vals = np.zeros(len(T.groupoid.arrows), dtype=complex)
    for a, z in assignments.items():
        if a not in T.arrow_index:
            raise UnknownArrow(f"unknown arrow {a!r}")
        vals[T.arrow_index[a]] = z
    return EquivariantFunction(T, degree, vals)


def delta(T: CocycleTwist, degree: int, arrow) -> EquivariantFunction:
    return function(T, degree, {arrow: 1.0})


def unit_function(T: CocycleTwist, degree: int) -> EquivariantFunction:
    """The convolution identity: indicator of the unit arrows."""
    return function(T, degree,
                    {e: 1.0 for e in T.groupoid.unit_arrow.values()})


def convolve(f: EquivariantFunction, g: EquivariantFunction) -> EquivariantFunction:
    """(f * g)(c) = sum_{ab = c} c_k(a, b) f(a) g(b)."""
    _check_same(f, g)
    T = f.twist
    G = T.groupoid
    out = np.zeros_like(f.values)
    idx = T.arrow_index
    for (a, b), ab in G.compose_table.items():
        fa = f.values[idx[a]]
        if fa == 0:
            continue
        gb = g.values[idx[b]]
        if gb == 0:
            continue
        out[idx[ab]] += T.c(f.degree, a, b) * fa * gb
    return EquivariantFunction(T, f.degree, out)


def involution(f: EquivariantFunction) -> EquivariantFunction:
    """f*(a) = conj(c_k(a, a^-1)) conj(f(a^-1))."""
    T = f.twist
    G = T.groupoid
    idx = T.arrow_index
    out = np.zeros_like(f.values)
    for a in G.arrows:
        ia = G.inv[a]
        out[idx[a]] = T.weight(f.degree, a) * np.conj(f.values[idx[ia]])
    return EquivariantFunction(T, f.degree, out)


def transpose(f: EquivariantFunction) -> EquivariantFunction:
    """Linear anti-multiplicative *-map into the opposite degree:
    tau(f)(a) = c_k(a, a^-1) f(a^-1)."""
    T = f.twist
    G = T.groupoid
    idx = T.arrow_index
    out = np.zeros_like(f.values)
    for a in G.arrows:
        ia = G.inv[a]
        out[idx[a]] = T.c(f.degree, a, ia) * f.values[idx[ia]]
    return EquivariantFunction(T, -f.degree, out)


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
    sigma = {pair: T.sigma[pair] for pair in GH.compose_table}
    return CocycleTwist(groupoid=GH, sigma=sigma)


def structure_constants(T: CocycleTwist, degree: int) -> np.ndarray:
    """Dense tensor S[i, j, l]: delta_i * delta_j = sum_l S[i,j,l] delta_l."""
    G = T.groupoid
    n = len(G.arrows)
    idx = T.arrow_index
    S = np.zeros((n, n, n), dtype=complex)
    for (a, b), ab in G.compose_table.items():
        S[idx[a], idx[b], idx[ab]] += T.c(degree, a, b)
    return S

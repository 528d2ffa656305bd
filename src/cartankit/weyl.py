"""Weyl twist extraction from finite regular MASA inclusions.

Germ classes of normalizers are represented canonically: for a
normalizer v with corner i in the domain of beta_v, the matrix
u = v p_i / sigma_i(v*v)^{1/2} is a partial isometry with u*u = p_i and
uu* = p_{beta_v(i)}; its positive-ray class is pinned by rotating the
first nonzero entry (row-major) to the positive reals.  For MASA
inclusions the corners of D are scalar, so each slice p_j C p_i holds at
most one circle class and the germ groupoid is principal: the classes
are read off ``Inclusion.corner_slices``, with no word search.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    NoConditionalExpectation,
    NotInDomain,
    NotRegular,
)
from .groupoid import build_groupoid
from .inclusion import (
    Inclusion,
    _require_normalizer,
    canonical_expectation,
)
from .matalg import hs_inner, hs_norm
from .twist import CocycleTwist

_GERM_TOL = 1e-8


def _ratio(a: np.ndarray, b: np.ndarray):
    """lambda with a = lambda b, or None if a, b are not proportional."""
    nb = hs_norm(b)
    lam = hs_inner(a, b) / nb ** 2
    if hs_norm(a - lam * b) > _GERM_TOL * max(1.0, hs_norm(a)):
        return None
    return lam


def germ_equal(inc: Inclusion, v, w, i: int, mode: str = "RT") -> bool:
    """Same germ at corner i: proportional corner slices, with positive
    ratio in mode R1 and any nonzero ratio in mode RT."""
    v = _require_normalizer(inc, v)
    w = _require_normalizer(inc, w)
    a = v @ inc.min_projs[i]
    b = w @ inc.min_projs[i]
    if hs_norm(a) < _GERM_TOL and hs_norm(b) < _GERM_TOL:
        raise NotInDomain(f"corner {i} is outside both beta domains")
    if hs_norm(a) < _GERM_TOL or hs_norm(b) < _GERM_TOL:
        return False
    lam = _ratio(a, b)
    if lam is None or abs(lam) < _GERM_TOL:
        return False
    if mode == "R1":
        return abs(lam.imag) < _GERM_TOL and lam.real > 0
    if mode == "RT":
        return True
    raise ValueError(f"unknown germ mode {mode!r}")


def _canonical_phases(U: np.ndarray, tol: float = 1e-9) -> np.ndarray:
    """Per matrix of the stack U, the unimodular factor that rotates its
    first nonzero entry (row-major) to the positive reals; 1 for 0."""
    mag = np.abs(U.reshape(len(U), -1))
    first = np.argmax(mag > tol * mag.max(axis=1, keepdims=True), axis=1)
    z = U.reshape(len(U), -1)[np.arange(len(U)), first]
    return np.divide(np.abs(z), z, out=np.ones_like(z), where=z != 0)


def canonical_phase(u: np.ndarray, tol: float = 1e-9) -> np.ndarray:
    """Rotate u so its first nonzero entry (row-major) is positive real."""
    return u * _canonical_phases(u[None], tol)[0]


def germ_expectation_criterion(inc: Inclusion, v, w, i: int,
                               tol: float = 1e-9) -> bool:
    """sigma_i(E(w* v)) != 0, for the conditional expectation of a MASA
    inclusion; agrees with germ_equal in mode RT."""
    if not inc.is_masa:
        raise NoConditionalExpectation(
            "no canonical conditional expectation: D is not a MASA")
    v = _require_normalizer(inc, v)
    w = _require_normalizer(inc, w)
    E = canonical_expectation(inc)
    return abs(inc.char(i, E.apply(w.conj().T @ v))) > tol


@dataclass(frozen=True)
class WeylTwistResult:
    """The extracted Weyl twist with its canonical germ representatives."""

    twist: CocycleTwist
    representatives: dict  # arrow id -> canonical partial isometry
    corner_of_unit: dict   # unit id -> corner index


def weyl_twist(inc: Inclusion) -> WeylTwistResult:
    """Assemble the Weyl groupoid G_W and its extracted cocycle from the
    germ classes, one per nonzero corner slice.

    Refuses non-MASA input: the two germ relations of the construction
    only provably agree for MASA inclusions.
    """
    if not inc.regular:
        raise NotRegular("Weyl twist requires a regular inclusion")
    slices = inc.corner_slices if inc.is_masa else None
    if slices is None:
        raise NoConditionalExpectation(
            "Weyl twist extraction refuses non-MASA inclusions: the germ "
            "relations are only equivalent when D is a MASA")
    m = inc.n_corners
    # germ classes keyed by (source corner, target corner), in key order;
    # X holds them compressed, class = Q_j X Q_i* (see Inclusion._slice_blocks)
    keys, X = inc._slice_blocks
    U = np.array([slices[key] for key in keys])
    phase = _canonical_phases(U)[:, None, None]
    U, X = U * phase, X * phase

    unit_id = {i: f"x{i}" for i in range(m)}
    arrow_id = {key: f"g{key[0]}.{key[1]}" for key in keys}
    specs = [(arrow_id[(i, j)], unit_id[i], unit_id[j], arrow_id[(j, i)])
             for (i, j) in keys]
    # the composable pairs (a, b), s(a) = r(b), in key order; a b lies in
    # the slice (s(b), r(a)).  Q_j* Q_j = 1, so products, inner products
    # and norms of the classes are those of their blocks.
    src, rng = np.array(keys).T
    where = np.full((m, m), -1)
    where[src, rng] = np.arange(len(keys))
    a, b = np.nonzero(src[:, None] == rng[None, :])
    t = where[src[b], rng[a]]
    prod, target = X[a] @ X[b], X[t]
    lam = np.einsum("kij,kij->k", target.conj(), prod) / \
        np.einsum("kij,kij->k", target.conj(), target).real
    resid = np.linalg.norm(prod - lam[:, None, None] * target, axis=(1, 2))
    scale = np.maximum(1.0, np.linalg.norm(prod, axis=(1, 2)))
    if np.any(t < 0) or np.any(resid > _GERM_TOL * scale):
        raise NoConditionalExpectation(
            "germ product is not a germ: inclusion is not MASA")
    ids = [arrow_id[key] for key in keys]
    pairs = [(ids[x], ids[y], ids[z]) for x, y, z in zip(a, b, t)]
    sigma = {(x, y): z for (x, y, _), z in zip(pairs,
                                               (lam / np.abs(lam)).tolist())}
    unit_arrows = {unit_id[i]: arrow_id[(i, i)] for i in range(m)}
    G = build_groupoid(list(unit_id.values()), specs, pairs, unit_arrows)
    T = CocycleTwist(groupoid=G, sigma=sigma)
    return WeylTwistResult(twist=T, representatives=dict(zip(ids, U)),
                           corner_of_unit={unit_id[i]: i for i in range(m)})

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
    InvalidMode,
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
from .matalg import EPS, RANK_TOL, hs_inner, hs_norm
from .twist import CocycleTwist, _with_phases


def _ratio(a: np.ndarray, b: np.ndarray):
    """lambda with a = lambda b, or None if a, b are not proportional."""
    nb = hs_norm(b)
    lam = hs_inner(a, b) / nb ** 2
    if hs_norm(a - lam * b) > RANK_TOL * max(1.0, hs_norm(a)):
        return None
    return lam


def germ_equal(inc: Inclusion, v, w, i: int, mode: str = "RT") -> bool:
    """Same germ at corner i: proportional corner slices, with positive
    ratio in mode R1 and any nonzero ratio in mode RT."""
    if mode not in ("R1", "RT"):
        raise InvalidMode(f"unknown germ mode {mode!r}")
    v = _require_normalizer(inc, v)
    w = _require_normalizer(inc, w)
    a = v @ inc.min_projs[i]
    b = w @ inc.min_projs[i]
    if hs_norm(a) < RANK_TOL and hs_norm(b) < RANK_TOL:
        raise NotInDomain(f"corner {i} is outside both beta domains")
    if hs_norm(a) < RANK_TOL or hs_norm(b) < RANK_TOL:
        return False
    lam = _ratio(a, b)
    if lam is None or abs(lam) < RANK_TOL:
        return False
    if mode == "R1":
        return abs(lam.imag) < RANK_TOL and lam.real > 0
    return True


def _canonical_phases(U: np.ndarray) -> np.ndarray:
    """Per matrix of the stack U, the unimodular factor that rotates its
    first nonzero entry (row-major) to the positive reals; 1 for 0.  It is
    1 on a PSD matrix, whose first nonzero entry is on the diagonal."""
    flat = U.reshape(len(U), np.prod(U.shape[1:], dtype=int))
    mag = np.abs(flat)
    first = np.argmax(mag > EPS * mag.max(axis=1, keepdims=True), axis=1)
    z = flat[np.arange(len(U)), first]
    return np.divide(np.abs(z), z, out=np.ones_like(z), where=z != 0)


def canonical_phase(u: np.ndarray) -> np.ndarray:
    """Rotate u so its first nonzero entry (row-major) is positive real."""
    return u * _canonical_phases(u[None])[0]


def germ_expectation_criterion(inc: Inclusion, v, w, i: int) -> bool:
    """sigma_i(E(w* v)) != 0, for the conditional expectation of a MASA
    inclusion; agrees with germ_equal in mode RT."""
    if not inc.is_masa:
        raise NoConditionalExpectation(
            "no canonical conditional expectation: D is not a MASA")
    v = _require_normalizer(inc, v)
    w = _require_normalizer(inc, w)
    E = canonical_expectation(inc)
    return abs(inc.char(i, E.apply(w.conj().T @ v))) > EPS


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
        raise NotRegular("Weyl twist", inc._irregular_slice)
    slices = inc.corner_slices if inc.is_masa else None
    if slices is None:
        raise NoConditionalExpectation(
            "Weyl twist extraction refuses non-MASA inclusions: the germ "
            "relations are only equivalent when D is a MASA")
    # germ classes keyed by (source corner, target corner), in key order;
    # X holds them compressed, class = Q_j X Q_i* (``_slice_blocks``), and
    # Q_j* Q_j = 1, so products, inner products and norms of the classes
    # are those of their blocks
    keys, X = inc._slice_blocks
    U = np.array([slices[key] for key in keys])
    phase = _canonical_phases(U)[:, None, None]
    U, X = U * phase, X * phase
    units = [f"x{i}" for i in range(inc.n_corners)]
    ids = [f"g{i}.{j}" for i, j in keys]
    T, _ = _class_twist(keys, X, units, ids, NoConditionalExpectation(
        "germ product is not a germ: inclusion is not MASA"))
    return WeylTwistResult(twist=T, representatives=dict(zip(ids, U)),
                           corner_of_unit={x: i for i, x in enumerate(units)})


def _class_twist(keys, X, units, arrows, refusal) -> tuple:
    """The twist of normalizer classes over scalar corners, shared by the
    Weyl and eigenfunctional twists: arrows[k] runs from units[s] to
    units[r], (s, r) = keys[k], and X[k] is the square block Q_j* u Q_i
    (``Inclusion._ranges``) of a partial isometry u from p_i, the corner
    of s, onto p_j, that of r.  With scalar corners each slice p_j C p_i
    is at most one-dimensional (``Inclusion.corner_slices``), so (s, r)
    names one class, the inverse (adjoint) class is the swapped key, and
    for s(a) = r(b), X[a] X[b] lies in the slice of (s(b), r(a)): it is
    mu X[c] for the class c of that key, and sigma(a, b) = mu/|mu|, from
    one batched contraction over the pairs.  ``refusal`` is raised when a
    product's class is missing, the product is not a multiple of it or
    |mu| != 1.  Returns the twist and mu, over its pairs in order."""
    src, rng = np.array(keys, dtype=np.intp).reshape(-1, 2).T
    where = np.full((len(units),) * 2, -1)
    where[src, rng] = np.arange(len(keys))
    a, b = np.nonzero(src[:, None] == rng[None, :])
    t = where[src[b], rng[a]]
    prod, target = X[a] @ X[b], X[t]
    lam = np.einsum("kij,kij->k", target.conj(), prod) / \
        np.einsum("kij,kij->k", target.conj(), target).real
    resid = np.linalg.norm(prod - lam[:, None, None] * target, axis=(1, 2))
    scale = np.maximum(1.0, np.linalg.norm(prod, axis=(1, 2)))
    if np.any(t < 0) or np.any(resid > RANK_TOL * scale) or \
            np.any(np.abs(np.abs(lam) - 1.0) > RANK_TOL):
        raise refusal
    names = np.array(arrows, dtype=object)
    specs = [(arrows[k], units[s], units[r], arrows[where[r, s]])
             for k, (s, r) in enumerate(zip(src, rng))]
    unit_arrows = {units[s]: arrows[k]
                   for k, (s, r) in enumerate(zip(src, rng)) if s == r}
    # the pairs (a, b) are distinct, so pair p of the groupoid is p here
    G = build_groupoid(units, specs, names[np.stack([a, b, t], axis=1)]
                       .tolist(), unit_arrows)
    return _with_phases(G, lam / np.abs(lam)), lam

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


def canonical_phase(u: np.ndarray, tol: float = 1e-9) -> np.ndarray:
    """Rotate u so its first nonzero entry (row-major) is positive real."""
    flat = u.ravel()
    scale = np.abs(flat).max()
    for z in flat:
        if abs(z) > tol * scale:
            return u * (abs(z) / z)
    return u


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
    # germ classes keyed by (source corner, target corner)
    classes = {key: canonical_phase(u) for key, u in slices.items()}

    unit_id = {i: f"x{i}" for i in range(m)}
    arrow_id = {key: f"g{key[0]}.{key[1]}" for key in sorted(classes)}
    specs = [(arrow_id[(i, j)], unit_id[i], unit_id[j], arrow_id[(j, i)])
             for (i, j) in sorted(classes)]
    pairs = []
    sigma = {}
    for (i1, j1) in sorted(classes):
        for (i2, j2) in sorted(classes):
            if i1 != j2:
                continue
            prod = classes[(i1, j1)] @ classes[(i2, j2)]
            target = classes[(i2, j1)]
            lam = _ratio(prod, target)
            if lam is None:
                raise NoConditionalExpectation(
                    "germ product is not a germ: inclusion is not MASA")
            a, b = arrow_id[(i1, j1)], arrow_id[(i2, j2)]
            pairs.append((a, b, arrow_id[(i2, j1)]))
            sigma[(a, b)] = lam / abs(lam)
    unit_arrows = {unit_id[i]: arrow_id[(i, i)] for i in range(m)}
    G = build_groupoid(list(unit_id.values()), specs, pairs, unit_arrows)
    T = CocycleTwist(groupoid=G, sigma=sigma)
    reps = {arrow_id[key]: cls for key, cls in classes.items()}
    return WeylTwistResult(twist=T, representatives=reps,
                           corner_of_unit={unit_id[i]: i for i in range(m)})

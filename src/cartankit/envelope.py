"""Eigenfunctionals, eigenfunctional twists over compatible covers, the
homomorphism theta_F, and the Cartan-envelope pipeline.

An eigenfunctional [v, f](x) = f(v* x)/f(v*v)^{1/2} is stored as its
value vector on the basis of C, read off its density conj(v) W /
f(v*v)^{1/2} for f's density W (see ``inclusion``); its range state
phi(. v)/phi(v) has density W_phi v^T.  Stored representatives
automatically satisfy phi(v) = f(v*v)^{1/2} > 0.  Twist arrows are
circle classes of eigenfunctionals [v, f], each v pinned by the Weyl
twist's rule (first nonzero entry, row-major, positive real).  The twist
is built by index, as the Weyl twist is: one class per (cover state,
reachable corner) pair, and the cocycle from one batched contraction of
r x r blocks (``weyl._class_twist``).  On the class
representatives theta_F is the identity matrix (``_theta_on_classes``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    CoverNotCertified,
    EnvelopeAbsent,
    InvalidMode,
    NotComposable,
    NotCovering,
    NotInvariant,
    NotNested,
    NotRegular,
    SourceVanishes,
)
from .groupoid import is_subgroupoid, has_factorization_property
from .inclusion import (
    Inclusion,
    ModState,
    is_compatible_state,
    pseudo_expectations,
    strongly_compatible,
    _density,
    _functional,
    _is_invariant,
    _located_state,
    _transport_reps,
)
from .matalg import COVER_MATCH_TOL, EPS, STATE_TOL, _as_matrix
from .reduced import ReducedAlgebra, is_cartan_pair, realize
from .twist import CocycleTwist, EquivariantFunction, _involution_values
from .weyl import _canonical_phases, _class_twist


@dataclass(frozen=True)
class Eigenfunctional:
    """[v, f] with cached source and range states."""

    inclusion: Inclusion
    v: np.ndarray
    source: ModState
    values: np.ndarray  # functional values on the basis of C

    def __call__(self, x) -> complex:
        return complex(self.values @ self.inclusion.C.coefficients(x))

    @cached_property
    def range(self) -> ModState:
        """x -> phi(x v)/phi(v), of density W v^T for phi's density W;
        phi(v) = sum(W * v) is its trace."""
        C = self.inclusion.C
        moved = _density(C, self.values) @ self.v.T
        return _located_state(self.inclusion, _functional(C, moved)
                              / np.trace(moved))

    def equal(self, other: "Eigenfunctional") -> bool:
        """Equality criterion: same source state and s(v* w) > 0."""
        if not self.source.close_to(other.source):
            return False
        t = complex(self.source(self.v.conj().T @ other.v))
        return abs(t.imag) < STATE_TOL and t.real > STATE_TOL

    def phase_class_equal(self, other: "Eigenfunctional") -> bool:
        """Equality up to a circle factor."""
        if not self.source.close_to(other.source):
            return False
        return abs(self.source(self.v.conj().T @ other.v)) > STATE_TOL


def eigenfunctional(inc: Inclusion, v, f: ModState) -> Eigenfunctional:
    v = np.asarray(v, dtype=complex)
    return Eigenfunctional(inclusion=inc, v=v, source=f, values=_eig_values(
        inc, v[None], f.density[None])[0])


def _eig_values(inc: Inclusion, V: np.ndarray, W: np.ndarray) -> np.ndarray:
    """The values of [v, f] on C's basis for (k, n, n) stacks V of v and W
    of f's densities: [v, f] has density M / f(v*v)^{1/2} with M = conj(v)
    W, and f(v*v) = sum(M * v)."""
    M = V.conj() @ W
    wt = np.einsum("kij,kij->k", M, V).real
    if np.any(wt <= EPS):
        raise SourceVanishes("f(v*v) vanishes; [v, f] is undefined")
    return _functional(inc.C, M) / np.sqrt(wt)[:, None]


def eig_product(a: Eigenfunctional, b: Eigenfunctional) -> Eigenfunctional:
    """a.b = [v_a v_b, s(b)], defined when s(a) = r(b)."""
    if not a.source.close_to(b.range):
        raise NotComposable("source of the first does not match range of "
                            "the second")
    return eigenfunctional(a.inclusion, a.v @ b.v, b.source)


def eig_inverse(a: Eigenfunctional) -> Eigenfunctional:
    """a^{-1} = [v*, r(a)]; satisfies a^{-1}(x) = conj(a(x*))."""
    return eigenfunctional(a.inclusion, a.v.conj().T, a.range)


# --- covers --------------------------------------------------------------

@dataclass(frozen=True)
class CompatibleCover:
    """A finite compatible cover of the Gelfand space of D; certified only
    when ``build_cover`` has checked it."""

    inclusion: Inclusion
    states: tuple  # of ModState
    certified: bool = False


def build_cover(inc: Inclusion, mode: str = "strongly_compatible",
                F=None) -> CompatibleCover:
    """The strongly compatible cover, or the states F in the "custom" mode
    only, refused unless it meets every corner, repeats no state, and its
    states are compatible (``is_compatible_state``) and invariant
    (``_is_invariant``), both decided exactly."""
    if mode not in ("strongly_compatible", "custom"):
        raise InvalidMode(f"unknown cover mode {mode!r}")
    if (mode == "custom") != (F is not None):
        raise InvalidMode(f"cover mode {mode!r} " + (
            "needs the states F" if F is None else "takes no states F"))
    F = tuple(F) if mode == "custom" else strongly_compatible(inc)
    corners = {rho.corner_index for rho in F}
    if corners != set(range(inc.n_corners)):
        raise NotCovering("restrictions to the Gelfand space of D are not "
                          "surjective")
    if any(rho.close_to(s) for k, rho in enumerate(F) for s in F[:k]):
        raise NotCovering("cover repeats a state")
    if not all(is_compatible_state(inc, rho)[0] for rho in F):
        raise NotCovering("cover contains an incompatible state")
    if not _is_invariant(inc, F):
        raise NotInvariant("cover is not invariant under the normalizer "
                           "action")
    return CompatibleCover(inclusion=inc, states=tuple(F), certified=True)


def covers_nested(F1: CompatibleCover, F2: CompatibleCover):
    """Map each F1 state to its index in F2, or None if not nested: some
    F1 state matches no F2 state or several.  States are compared only
    with the F2 states at their corner (equal states restrict to the same
    character of D)."""
    at_corner = _by_corner(F2.states)
    idx = []
    for rho in F1.states:
        hits = [j for j in at_corner.get(rho.corner_index, ())
                if rho.close_to(F2.states[j])]
        if len(hits) != 1:
            return None
        idx.append(hits[0])
    return idx


def _by_corner(states) -> dict:
    """{corner index: indices of the states at that corner, in order}."""
    out = {}
    for j, s in enumerate(states):
        out.setdefault(s.corner_index, []).append(j)
    return out


# --- the eigenfunctional twist -------------------------------------------

@dataclass(frozen=True)
class EigenTwistData:
    """The extracted twist with its classes as arrays in arrow order."""

    inclusion: Inclusion
    cover: CompatibleCover
    twist: CocycleTwist
    reps: np.ndarray  # (|arrows|, n, n): v p_i of arrow [v, f], f at corner i
    values: np.ndarray  # (|arrows|, dim C): [v, f] on the basis of C
    unit_of_state: dict  # cover-state index -> unit id
    ratios: np.ndarray  # per pair (a, b), mu with v_a v_b = mu v_ab

    @cached_property
    def _theta_map(self) -> np.ndarray:
        """theta_F's (n^2, |arrows|) matrix B^H values^T, B C's basis rows."""
        return self.inclusion.C.basis_rows.conj().T @ self.values.T

    def _theta(self, mats: np.ndarray) -> np.ndarray:
        """theta_F on a stack (..., n, n) of elements of C."""
        return mats.reshape(*mats.shape[:-2], -1) @ self._theta_map


def eigen_twist(inc: Inclusion, cover: CompatibleCover) -> EigenTwistData:
    """The twist of eigenfunctional classes [v, f] over the cover, built
    by index.  A compatible f at corner i is a character of A_i, and a
    normalizer with f(v*v) > 0 has v p_i = c u w, u the partial isometry
    of a key (i, k) of ``_transport_reps`` and w a unitary of A_i (see
    ``_is_invariant``); so [v, f] = conj(c f(w))/|c| [u, f], and the
    classes at f are the keys, [1, f] on the diagonal.  The range of
    [u, f] is f on the diagonal, else the cover's one state at corner k:
    only scalar corners have off-diagonal keys, with one state each, and
    a built cover is invariant and repeats no state.  Classes are keyed
    by (source, range), in key order.  Each v is pinned by the Weyl rule
    (``weyl._canonical_phases``), which leaves 1 as it is, so on scalar
    corners the classes are the Weyl twist's.  [v, f] depends on v only
    through v p_i = Q_k (Q_k* v Q_i) Q_i*, so the block Q_k* v Q_i
    represents it in ``weyl._class_twist``, and v_a v_b p_i = mu v_c p_i
    gives [v_a v_b, f] = conj(mu)/|mu| [v_c, f]: theta_F is multiplicative
    for sigma = mu/|mu|, the Weyl sigma under the corner-pair map."""
    if not isinstance(cover, CompatibleCover) or not cover.certified:
        raise CoverNotCertified("cover is not certified")
    F = cover.states
    at_corner = _by_corner(F)
    classes = {}  # (source, range) -> (corner pair, representative)
    for (i, k), u in _transport_reps(inc).items():
        for j in at_corner.get(i, ()):
            r = [j] if k == i else at_corner.get(k, [])
            if len(r) != 1:
                raise CoverNotCertified("cover is not invariant")
            classes[(j, r[0])] = (i, k), inc.C.unit if k == i else u
    keys = sorted(classes)
    n, Q = inc.C.ambient_dim, inc._ranges
    src, rng = np.array([classes[key][0] for key in keys],
                        dtype=np.intp).reshape(-1, 2).T
    V = np.reshape([classes[key][1] for key in keys], (-1, n, n))
    V = V * _canonical_phases(V)[:, None, None]
    units = [f"f{j}" for j in range(len(F))]
    arrows = [f"a{k}" for k in range(len(keys))]
    X = Q[rng].conj().transpose(0, 2, 1) @ V @ Q[src]
    T, ratios = _class_twist(keys, X, units, arrows, CoverNotCertified(
        "eigenfunctional classes not closed under products"))
    order = np.argsort([T.groupoid.arrays.index[a] for a in arrows])
    W = np.reshape([F[keys[k][0]].density for k in order], (-1, n, n))
    return EigenTwistData(
        inclusion=inc, cover=cover, twist=T,
        reps=V[order] @ inc._projs[src[order]],
        values=_eig_values(inc, V[order], W),
        unit_of_state=dict(enumerate(units)), ratios=ratios)


def theta_F(data: EigenTwistData, a) -> EquivariantFunction:
    """The degree-1 function g -> phi_g(a)."""
    return EquivariantFunction(data.twist, 1, data._theta(
        _as_matrix(a, data.inclusion.C.ambient_dim)))


def _theta_on_classes(data: EigenTwistData) -> bool:
    """theta_F is a *-isomorphism of C onto C_r(Sigma) carrying span{p_i}
    onto C(G^0).  With V the class representatives (``reps``) and
    Theta = theta_F(V), checked to ``STATE_TOL`` per entry: (i)
    |arrows| = dim C and Theta = I; (ii) p_r(a) v_a p_s(a) = v_a; (iii)
    sigma(a, b) = mu(a, b), the twist's stored sigma against the ratio
    v_a v_b = mu v_ab that ``_class_twist`` measured with |mu| = 1; (iv)
    theta(V*) is the twist's involution of Theta.
    By (i) theta(v_a) = delta_a and ||Theta - I|| < 1, so V is a basis of
    C and theta a linear bijection.  Units sit at distinct corners (a built
    cover meets each scalar corner in its one state), so for s(a) != r(b),
    (ii) gives v_a v_b = v_a p_s(a) p_r(b) v_b = 0 = delta_a * delta_b;
    for composable pairs (iii) gives theta(v_a v_b) = sigma(a, b) delta_ab
    = delta_a * delta_b.  So theta is multiplicative, with no associativity
    needed, and by (iv) *-preserving.  (ii) puts the unit class's v_e in
    p C p = C p, so theta(p) is a multiple of delta_e."""
    T, inc, F = data.twist, data.inclusion, data.cover.states
    G, t = T.groupoid, T.groupoid.arrays
    n, V = len(G.arrows), data.reps
    theta = data._theta(V)
    corner = {u: F[j].corner_index for j, u in data.unit_of_state.items()}
    P = inc._projs[[corner[x] for x in G.units]]
    return n == inc.C.dim and all(
        np.abs(err).max(initial=0.0) <= STATE_TOL for err in (
            theta - np.eye(n), P[t.rng[:n]] @ V @ P[t.src[:n]] - V,
            T.sigma_vector - data.ratios,
            data._theta(V.conj().transpose(0, 2, 1))
            - _involution_values(T, 1, theta)))


# --- envelope pipeline ---------------------------------------------------

@dataclass(frozen=True)
class EnvelopeCertificate:
    """Evidence for (or the reasons against) a Cartan envelope."""

    inclusion: Inclusion
    has_unique_pseudo_expectation: bool
    dc_abelian: bool
    dc_essential_over_d: bool
    c_essential_over_dc: bool
    rejection_reason: str | None = None
    data: EigenTwistData | None = None
    realization: ReducedAlgebra | None = None
    regular_homomorphism: bool = False
    kernel_equals_KF: bool = False
    generation: bool = False
    d1_generation: bool = False
    essential_extension: bool = False
    pointwise_density: bool = False
    cartan: bool = False
    theta_isomorphism: bool = False

    @property
    def success(self) -> bool:
        return (self.has_unique_pseudo_expectation
                and self.regular_homomorphism and self.kernel_equals_KF
                and self.generation and self.d1_generation
                and self.essential_extension and self.pointwise_density
                and self.cartan)


def cartan_envelope(inc: Inclusion) -> EnvelopeCertificate:
    """The three essential-inclusion fields are facts about the corners
    A_i = p_i C p_i, whose direct sum is D' cap C:
    - D' cap C is abelian iff every A_i is, as ``mod_states`` has decided:
      it lists extreme states exactly for the abelian corners;
    - D is essential in D' cap C iff every A_i is a factor.  The minimal
      central projections of D' cap C are the corners' (``commutant_blocks``),
      and for such a q <= p_i and b = sum_j t_j p_j != 0 in D, qb = b forces
      t_j = 0 for j != i and then q = p_i;
    - C is always essential over D' cap C: a nonzero ideal of C is zC for a
      central projection z != 0, and z commutes with D, which lies in C, so
      z lies in D' cap C and in zC.
    Past the unique pseudo-expectation (scalar corners) every field but
    ``essential_extension`` and ``cartan`` follows from ``_theta_on_classes``:
    a *-isomorphism carrying D onto C(G^0) maps normalizers to normalizers,
    is onto (generation, pointwise density), has E(theta(p_i)) spanning
    C(G^0) (D1 generation), and ker theta = 0 = K_F, as the cover states
    give rho_i(x*x) = ||x p_i||_HS^2 / tr p_i, which vanish for all i only
    at x = x sum p_i = 0."""
    if not inc.regular:
        raise NotRegular("Cartan envelope", inc._irregular_slice)
    pe = pseudo_expectations(inc)
    dc_abelian = all(c.extreme_states for c in pe.corners)
    dc_ess = len(inc.commutant_blocks) == inc.n_corners
    if not pe.unique:
        reason = ("no unique pseudo-expectation; the relative commutant "
                  "of D is " + ("abelian" if dc_abelian else "non-abelian"))
        return EnvelopeCertificate(
            inclusion=inc, has_unique_pseudo_expectation=False,
            dc_abelian=dc_abelian, dc_essential_over_d=dc_ess,
            c_essential_over_dc=True, rejection_reason=reason)

    cover = build_cover(inc, "strongly_compatible")
    data = eigen_twist(inc, cover)
    R = realize(data.twist, 1)
    iso = _theta_on_classes(data)
    # essential extension: cover <-> Gelfand space of D bijectively (a
    # built cover meets every corner)
    essential = len(cover.states) == inc.n_corners
    return EnvelopeCertificate(
        inclusion=inc, has_unique_pseudo_expectation=True,
        dc_abelian=dc_abelian, dc_essential_over_d=dc_ess,
        c_essential_over_dc=True, data=data, realization=R,
        regular_homomorphism=iso, kernel_equals_KF=iso, generation=iso,
        d1_generation=iso, pointwise_density=iso, theta_isomorphism=iso,
        essential_extension=essential,
        cartan=is_cartan_pair(R).is_cartan)


# --- cover comparison ----------------------------------------------------

@dataclass(frozen=True)
class CoverComparison:
    """The restriction epimorphism between nested-cover realizations."""

    data_big: EigenTwistData
    data_small: EigenTwistData
    arrow_map: dict  # small-twist arrow -> big-twist arrow
    dim_big: int
    dim_small: int
    intertwining_residual: float


def cover_comparison(inc: Inclusion, F1: CompatibleCover,
                     F2: CompatibleCover) -> CoverComparison:
    nesting = covers_nested(F1, F2)
    if nesting is None:
        raise NotNested("F1 is not contained in F2")
    d1 = eigen_twist(inc, F1)
    d2 = eigen_twist(inc, F2)
    G2 = d2.twist.groupoid
    keep_units = {d2.unit_of_state[j] for j in nesting}
    H = [a for a in G2.arrows
         if G2.src[a] in keep_units and G2.rng[a] in keep_units]
    if not is_subgroupoid(G2, H) or not has_factorization_property(G2, H):
        raise NotNested("restriction to the small cover is not "
                        "factorization-closed")
    # a small-twist arrow is the big-twist arrow between the images of its
    # source and range states, with the same functional
    G1 = d1.twist.groupoid
    unit = {d1.unit_of_state[j]: d2.unit_of_state[k]
            for j, k in enumerate(nesting)}
    by_ends = {(G2.src[a], G2.rng[a]): a for a in H}
    arrow_map = {a: by_ends.get((unit[G1.src[a]], unit[G1.rng[a]]))
                 for a in G1.arrows}
    cols = [G2.arrays.index.get(a2, -1) for a2 in arrow_map.values()]
    if -1 in cols or np.any(np.linalg.norm(
            d1.values - d2.values[cols], axis=-1) >= COVER_MATCH_TOL):
        raise NotNested("could not match eigenfunctional classes "
                        "between the covers")
    # intertwining: q(theta_2(b)) = theta_1(b)
    B = inc.C.stack
    resid = float(np.max(np.abs(d2._theta(B)[:, cols] - d1._theta(B)),
                         initial=0.0))
    # the realizations' delta images have disjoint supports: dim = |arrows|
    return CoverComparison(data_big=d2, data_small=d1, arrow_map=arrow_map,
                           dim_big=len(G2.arrows), dim_small=len(G1.arrows),
                           intertwining_residual=resid)


def envelope_uniqueness_crosscheck(inc: Inclusion) -> bool:
    """Build the envelope via the eigenfunctional twist and via the Weyl
    twist; compare block structures, and check that matching arrows by
    corner pair is an isomorphism of the two groupoids."""
    from .weyl import weyl_twist

    cert = cartan_envelope(inc)
    if not cert.success:
        raise EnvelopeAbsent(cert.rejection_reason or
                             "no Cartan envelope exists")
    # the Weyl side is built from C/L(C, D) = C: the canonical expectation's
    # corner densities p_i/tr p_i are faithful, so E(x*x) = 0 forces
    # x p_i = 0 for every i, hence x = 0
    W = weyl_twist(inc)
    if cert.realization.block_structure() != \
            realize(W.twist, 1).block_structure():
        return False
    data = cert.data
    GA = data.twist.groupoid
    GB = W.twist.groupoid
    corner = {unit: data.cover.states[s].corner_index
              for s, unit in data.unit_of_state.items()}
    to_b = {a: f"g{corner[GA.src[a]]}.{corner[GA.rng[a]]}"
            for a in GA.arrows}
    # a bijection onto GB's arrows carrying one composition onto the other
    if sorted(to_b.values()) != sorted(GB.arrows):
        return False
    perm = np.array([GB.arrays.index[to_b[a]] for a in GA.arrows])
    ta, tb = GA.arrays, GB.arrays
    p = tb.pair_at[perm[ta.a], perm[ta.b]]
    return len(ta.pairs) == len(tb.pairs) and bool(
        np.all(p >= 0) and np.array_equal(tb.ab[p], perm[ta.ab]))

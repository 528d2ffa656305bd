"""The exact Cartan certificate of ``reduced.is_cartan_pair``: regularity
and faithfulness read from the tables and the realization's entries,
cross-checked against the dense numerical path it replaces (kept here as
``ref_cartan_certificate``), on valid twists, on hand-built phase vectors
that are no cocycles, and on corrupted composition tables.  The other
readers of the entries' pattern (``delta_norms``, ``algebra``,
``diagonal``) against the dense delta images and their spans, and their
refusals where the pattern, or disjoint nonzero supports, fail."""

import ast
import dataclasses
import inspect
import json
import pathlib
import re

import numpy as np
import pytest

import cartankit.matalg
import cartankit.reduced
import cartankit.twist
from cartankit import cli
from cartankit.envelope import Eigenfunctional, build_cover, eigen_twist
from cartankit.errors import EmptyAlgebra, OutsideFibers
from cartankit.groupoid import (
    build_groupoid,
    cyclic_groupoid,
    disjoint_union,
    klein_four_groupoid,
    pair_groupoid,
)
from cartankit.inclusion import (
    ModState,
    beta,
    is_compatible_state,
    make_inclusion,
)
from cartankit.matalg import (
    EPS,
    _minimal_projections,
    _vec,
    block_structure,
    center,
    ideal_generated_by,
    minimal_projections,
    rank,
    relative_commutant,
    row_span,
)
from cartankit.reduced import (
    NORMALIZER_TOL,
    CartanCertificate,
    ReducedAlgebra,
    is_cartan_pair,
    realize,
)
from cartankit.serialize import inclusion_to_json, twist_to_json
from cartankit.twist import (
    CocycleTwist,
    _involution_values,
    delta,
    trivial_twist,
)
from cartankit.weyl import (
    _canonical_phases,
    canonical_phase,
    germ_expectation_criterion,
)
from conftest import (
    k4_nontrivial_sigma,
    mndn_inclusion,
    random_coboundary,
    random_twist_corpus,
    ref_algebra,
    ref_delta_images,
    ref_delta_norms,
    ref_diagonal,
    subspace_equals,
    ulps_apart,
)
from test_table_arrays import _corrupted_groupoids, _corrupted_twists


def ref_faithful(R, eps=EPS):
    """The dense faithfulness test: the eigenvalues of the hermitian part
    of the Gram E(delta_g* delta_h)."""
    t, n = R.twist.groupoid.arrays, len(R.twist.groupoid.arrows)
    on_unit = t.unit[t.ab]
    Q = np.zeros((n, n), dtype=complex)
    Q[t.a[on_unit], t.b[on_unit]] = R.twist.phases(R.degree)[on_unit]
    gram = _involution_values(R.twist, R.degree, np.eye(n)) @ Q
    return bool(np.linalg.eigvalsh(0.5 * (gram + gram.conj().T)).min() > eps)


def _normalizes(D, V):
    """v d v* and v* d v lie in D, as ``D.contains(m, NORMALIZER_TOL)``
    decides, for every v of the stack V and every basis element d of D."""
    Vh = V.conj().transpose(0, 2, 1)
    return all(D.contains_all(V @ d @ Vh, NORMALIZER_TOL) and
               D.contains_all(Vh @ d @ V, NORMALIZER_TOL) for d in D.stack)


def ref_cartan_certificate(R, eps=EPS):
    """The dense path: every delta image against D's basis through
    ``_normalizes``, and ``ref_faithful``."""
    t, n = R.twist.groupoid.arrays, len(R.twist.groupoid.arrows)
    defect = int(np.count_nonzero(t.src[:n] == t.rng[:n])) - \
        len(R.twist.groupoid.units)
    N = R.total_dim
    regular = _normalizes(ref_diagonal(R),
                          ref_delta_images(R).reshape(-1, N, N))
    return CartanCertificate(diagonal_is_masa=defect == 0, regular=regular,
                             expectation_faithful=ref_faithful(R, eps),
                             masa_defect=defect)


def _k4s_pair(k, rng):
    G = disjoint_union(klein_four_groupoid(), pair_groupoid(k))
    return random_coboundary(G, rng, ("A.k",))


def _valid_twists():
    rng = np.random.default_rng(11)
    out = [("corpus", T) for T in random_twist_corpus(30, seed=5)]
    out += [(f"k4s_pair{k}", _k4s_pair(k, rng)) for k in range(1, 7)]
    # the inputs of the benchmark's cstar workload
    out += [(f"pair{n}", random_coboundary(pair_groupoid(n), rng))
            for n in (6, 7)]
    out += [(f"k4s_pair{k}", _k4s_pair(k, rng)) for k in (4, 6)]
    out += [("k4s", k4_nontrivial_sigma(klein_four_groupoid()))]
    for n in range(2, 7):
        inc = mndn_inclusion(n)
        out.append((f"eigen_twist M_{n}",
                    eigen_twist(inc, build_cover(inc)).twist))
    return out


VALID = _valid_twists()


@pytest.mark.parametrize("degree", [1, -1])
@pytest.mark.parametrize("name,T", VALID, ids=[n for n, _ in VALID])
def test_matches_dense_path_on_valid_twists(name, T, degree):
    R = realize(T, degree)
    cert = is_cartan_pair(R)
    assert cert == ref_cartan_certificate(R)
    assert cert.regular and cert.expectation_faithful


def _with_phase(G, changes):
    """The trivial twist on G with sigma replaced at some pairs: no
    cocycle, built directly as CocycleTwist(G, sigma)."""
    sigma = dict(trivial_twist(G).sigma)
    sigma.update(changes)
    return CocycleTwist(G, sigma)


Z3 = cyclic_groupoid(3)
K4 = klein_four_groupoid()
K4_PAIR2 = disjoint_union(klein_four_groupoid(), pair_groupoid(2))

#: Hand-built phase vectors: (groupoid, {pair: phase}), and which of
#: regular / faithful the certificate must refuse.
HAND_BUILT = {
    "Z3 modulus 2 off the units": (Z3, {("c1", "c1"): 2.0}, "regular"),
    "Z3 modulus 2 landing on a unit": (Z3, {("c1", "c2"): 2.0}, "regular"),
    "K4 modulus 2": (K4, {("k01", "k10"): -2.0}, "regular"),
    "K4+pair2 modulus 2": (K4_PAIR2, {("A.k11", "A.k01"): 2j}, "regular"),
    "Z3 unnormalized unit pair": (Z3, {("c0", "c1"): 1j}, "regular"),
    "K4+pair2 unnormalized unit pair": (
        K4_PAIR2, {("A.k00", "A.k11"): np.exp(0.3j)}, "regular"),
    "Z3 zero phase": (Z3, {("c2", "c1"): 0.0}, "faithful"),
    "K4 zero phase": (K4, {("k11", "k11"): 0.0}, "faithful"),
    "K4+pair2 zero phase": (K4_PAIR2, {("B.u0<-u1", "B.u1<-u0"): 0.0},
                            "faithful"),
}


@pytest.mark.parametrize("degree", [1, -1])
@pytest.mark.parametrize("case", sorted(HAND_BUILT))
def test_hand_built_phases_refused(case, degree):
    G, changes, refused = HAND_BUILT[case]
    R = realize(_with_phase(G, changes), degree)
    cert = is_cartan_pair(R)
    assert cert == ref_cartan_certificate(R)
    assert not (cert.regular and cert.expectation_faithful)
    if refused == "regular":
        assert not cert.regular
    else:
        assert not cert.expectation_faithful


def test_pair_groupoid_phases_of_other_modulus():
    """On a pair groupoid every delta has one entry per row, so a phase of
    another modulus off the unit-landing pairs keeps each product a
    multiple of a diagonal delta: both paths still certify it."""
    T = _with_phase(pair_groupoid(3), {("u0<-u1", "u1<-u2"): 2.0})
    R = realize(T)
    assert is_cartan_pair(R) == ref_cartan_certificate(R)
    assert is_cartan_pair(R).is_cartan


def _corrupted(G, changes):
    """G with some composites replaced: tables that fail validation."""
    table = dict(G.compose_table)
    table.update(changes)
    return dataclasses.replace(G, compose_table=table)


def _corrupted_tables():
    G = pair_groupoid(2)
    e0, e1 = G.unit_arrow["u0"], G.unit_arrow["u1"]
    return {
        "colliding rows": _corrupted(Z3, {("c1", "c1"): "c0"}),
        "outside the fibers": _corrupted(
            pair_groupoid(3), {("u2<-u0", "u0<-u0"): "u2<-u2"}),
        "missing pairs": dataclasses.replace(Z3, compose_table={
            k: v for k, v in Z3.compose_table.items() if k[0] != "c1"}),
        "off-diagonal gram": _corrupted(
            G, {(e0, "u0<-u1"): e0, ("u1<-u0", e0): e1}),
        "missing inverse pair": _corrupted(Z3, {("c2", "c1"): "c1"}),
        # delta_c2 is a permutation of the fiber, as every delta of Z/3
        # is, but shares (c0, c0) with delta_c0 and (c2, c1) with delta_c1
        "overlapping deltas": _corrupted(Z3, {
            ("c2", "c0"): "c0", ("c2", "c1"): "c2", ("c2", "c2"): "c1"}),
    }


#: Corrupted composition tables, by name, with the trivial phases.
CORRUPTED = {k: trivial_twist(G) for k, G in _corrupted_tables().items()}


def test_colliding_rows_refused():
    """c1 c1 -> c0 in Z/3 sends two columns of delta_c1 to one row: no
    partial isometry, and delta_c1 delta_c1* is not in D.  The products
    summed per arrow alone would not see it."""
    R = realize(CORRUPTED["colliding rows"])
    assert not is_cartan_pair(R).regular
    assert not ref_cartan_certificate(R).regular


def test_product_outside_the_fibers_refused():
    """u2<-u0 u0<-u0 -> u2<-u2 in pair(3), whose source is no orbit
    representative: the entry has no row.  Read as row -1 it would wrap
    onto the last position, u2<-u0, the right row; the dense path, which
    builds the delta images, refuses the tables instead, and so do the
    readers of the entries' pattern."""
    R = realize(CORRUPTED["outside the fibers"])
    assert R._fiber_entries[1].min() == -1
    assert not is_cartan_pair(R).regular
    for build in (lambda: ref_delta_images(R), lambda: R.represent(
            delta(R.twist, 1, "u2<-u0")), lambda: ref_cartan_certificate(R),
            R.delta_norms, lambda: R.algebra, lambda: R.diagonal):
        with pytest.raises(OutsideFibers):
            build()


def test_missing_pairs_refused():
    """With every pair (c1, b) gone from Z/3, delta_c1 is realized as 0:
    no partial isometry between the range parts (the dense path certifies
    the zero matrix as a normalizer)."""
    R = realize(CORRUPTED["missing pairs"])
    assert not is_cartan_pair(R).regular
    assert ref_cartan_certificate(R).regular


@pytest.mark.parametrize("degree", [1, -1])
@pytest.mark.parametrize("delta,regular", [(1e-6, False), (1e-9, True)])
def test_regularity_cut(delta, regular, degree):
    """sigma(c1, c1) = 1 + delta in Z/3 puts delta_c1 e delta_c1* about
    0.94 delta from D, on either side of NORMALIZER_TOL."""
    R = realize(_with_phase(Z3, {("c1", "c1"): 1 + delta}), degree)
    cert = is_cartan_pair(R)
    assert cert == ref_cartan_certificate(R)
    assert cert.regular is regular


def test_off_diagonal_gram_refused():
    """e0 g -> e0 and g^-1 e0 -> e1 in pair(2) (g = u0<-u1) put 1 at both
    (e0, g) and (g, e0) of the Gram, whose {e0, g} block [[1, 1], [1, 1]]
    is singular: not faithful, although every diagonal entry is 1."""
    R = realize(CORRUPTED["off-diagonal gram"])
    assert not is_cartan_pair(R).expectation_faithful
    assert not ref_faithful(R)
    # u1<-u0 e0 -> e1 leaves the fiber of u0: no delta image is built
    with pytest.raises(OutsideFibers):
        ref_cartan_certificate(R)


def test_missing_inverse_pair_refused():
    """An arrow g with no pair (g^-1, g) landing on a unit has a zero
    diagonal Gram entry."""
    R = realize(CORRUPTED["missing inverse pair"])
    assert not is_cartan_pair(R).expectation_faithful
    assert not ref_cartan_certificate(R).expectation_faithful


def test_zero_algebra_refused():
    R = realize(trivial_twist(build_groupoid([], [], [], {})))
    with pytest.raises(EmptyAlgebra, match="the zero algebra has no unit"):
        is_cartan_pair(R)


# --- the readers of the pattern -------------------------------------------

def _across_blocks():
    """Tables on which each delta_g is a partial isometry pattern, yet c
    and h send positions of one orbit block into the other: c: x0 -> x2
    has no inverse, so x0 and x2 both represent an orbit, and c a, c a^2,
    h c and h e2 land in the other fiber.  sigma(c, a) = 2 puts the largest
    entry of delta_c off the blocks."""
    specs = [("e0", "x0", "x0", "e0"), ("a", "x0", "x0", "a2"),
             ("a2", "x0", "x0", "a"), ("c", "x0", "x2", "c"),
             ("e2", "x2", "x2", "e2"), ("h", "x2", "x2", "h")]
    pairs = [("e0", b, b) for b in ("e0", "a", "a2")] + \
        [("e2", b, b) for b in ("c", "e2", "h")] + [
        ("a", "e0", "a"), ("a", "a", "a2"), ("a", "a2", "e0"),
        ("a2", "e0", "a2"), ("a2", "a", "e0"), ("a2", "a2", "a"),
        ("h", "c", "h"), ("h", "e2", "c"), ("h", "h", "e2"),
        ("c", "e0", "c"), ("c", "a", "h"), ("c", "a2", "e2")]
    G = build_groupoid(["x0", "x2"], specs, pairs, {"x0": "e0", "x2": "e2"})
    return _with_phase(G, {("c", "a"): 2.0})


def _every_corrupted_table():
    """Every table this suite and ``test_table_arrays`` corrupt, whose
    phases can be read: (name, twist)."""
    out = [(case, _with_phase(G, changes))
           for case, (G, changes, _) in sorted(HAND_BUILT.items())]
    out += [("pair3 modulus 2", _with_phase(
        pair_groupoid(3), {("u0<-u1", "u1<-u2"): 2.0}))]
    out += [(f"Z3 cut {d}", _with_phase(Z3, {("c1", "c1"): 1 + d}))
            for d in (1e-6, 1e-9)]
    out += sorted(CORRUPTED.items())
    out += [(f"groupoid {label}", trivial_twist(G))
            for label, G in _corrupted_groupoids()]
    out += [(f"{label} on {('pair(3)', 'Z/5')[k // 5]}", T)
            for k, (label, T) in enumerate(_corrupted_twists())
            if label != "keys"]
    return out + [("across blocks", _across_blocks())]


EVERY_CORRUPTED = _every_corrupted_table()

#: (regular, faithful, masa_defect) of ``is_cartan_pair`` on each, in both
#: degrees, as the certificate read them before the pattern check moved
#: into ``ReducedAlgebra``.
CERTIFIED = {
    "K4 modulus 2": (False, True, 3), "K4 zero phase": (False, False, 3),
    "K4+pair2 modulus 2": (False, True, 3),
    "K4+pair2 unnormalized unit pair": (False, True, 3),
    "K4+pair2 zero phase": (True, False, 3),
    "Z3 modulus 2 landing on a unit": (False, True, 2),
    "Z3 modulus 2 off the units": (False, True, 2),
    "Z3 unnormalized unit pair": (False, True, 2),
    "Z3 zero phase": (False, False, 2), "pair3 modulus 2": (True, True, 0),
    "Z3 cut 1e-06": (False, True, 2), "Z3 cut 1e-09": (True, True, 2),
    "colliding rows": (False, False, 2), "missing pairs": (False, False, 2),
    "missing inverse pair": (False, False, 2),
    "off-diagonal gram": (False, False, 0),
    "outside the fibers": (False, False, 0),
    "overlapping deltas": (True, False, 2),
    "groupoid inverse": (True, False, 0),
    "groupoid unknown inverse": (True, False, 0),
    "groupoid unit arrow ends": (False, False, 0),
    "groupoid missing unit arrow": (False, False, 0),
    "groupoid unknown source": (False, True, 0),
    "groupoid missing compose entry": (False, True, 0),
    "groupoid extra compose entry": (True, True, 0),
    "groupoid wrong composite ends": (True, True, 0),
    "groupoid unknown composite": (False, True, 0),
    "groupoid associativity": (False, True, 3),
    "modulus on pair(3)": (True, True, 0),
    "normalization on pair(3)": (True, True, 0),
    "cocycle identity on pair(3)": (True, True, 0),
    "small defect on pair(3)": (True, True, 0),
    "modulus on Z/5": (False, True, 4),
    "normalization on Z/5": (False, True, 4),
    "cocycle identity on Z/5": (True, True, 4),
    "small defect on Z/5": (True, True, 4),
    "across blocks": (False, False, 3),
}


def ref_pattern(R):
    """The partial isometry pattern, decided on dense 0/1 supports (with
    repeats counted): every entry has a row and a listed arrow, and each
    delta_g has at most one entry per row and per column, its columns
    exactly the positions of range s(g), its rows exactly those of range
    r(g), and its entries on the diagonal if g is a unit arrow."""
    t, n = R.twist.groupoid.arrays, len(R.twist.groupoid.arrows)
    p, rows, cols = R._fiber_entries
    g, at = t.a[p], t.rng[R._fiber_arrows]
    if (rows < 0).any() or (g >= n).any():
        return False
    S = np.zeros((n, R.total_dim, R.total_dim), dtype=int)
    np.add.at(S, (g, rows, cols), 1)
    for k, s in enumerate(S):
        row, col = s.sum(axis=1), s.sum(axis=0)
        if max(row.max(), col.max()) > 1 \
                or not np.array_equal(col > 0, at == t.src[k]) \
                or not np.array_equal(row > 0, at == t.rng[k]) \
                or t.unit[k] and np.count_nonzero(s - np.diag(np.diag(s))):
            return False
    return True


def _disjoint_and_nonzero(R):
    """No two delta images share an entry, and ``row_span`` keeps all of
    them."""
    _, rows, cols = R._fiber_entries
    cells = np.zeros((R.total_dim, R.total_dim), dtype=int)
    np.add.at(cells, (rows, cols), 1)
    images = ref_delta_images(R)
    return cells.max() <= 1 and len(row_span(images)) == len(images)


def _same_algebra(A, B):
    """A is an HS-orthonormal basis of B's span, with B's unit."""
    assert A.dim == B.dim and A.ambient_dim == B.ambient_dim
    assert np.abs(A.basis_rows @ A.basis_rows.conj().T
                  - np.eye(A.dim)).max() < 1e-12
    assert subspace_equals(A, B, 1e-10)
    assert np.array_equal(A.unit, B.unit)


@pytest.mark.parametrize("degree", [1, -1])
@pytest.mark.parametrize("name,T", VALID, ids=[n for n, _ in VALID])
def test_readers_match_dense_spans(name, T, degree):
    """``algebra`` and ``diagonal`` span what the ``row_span`` of the delta
    images spans, and ``delta_norms`` is the SVD norm of the orbit blocks
    to 8 units in the last place."""
    R = realize(T, degree)
    _same_algebra(R.algebra, ref_algebra(R))
    _same_algebra(R.diagonal, ref_diagonal(R))
    assert ulps_apart(R.delta_norms(), ref_delta_norms(R)).max() <= 8


@pytest.mark.parametrize("degree", [1, -1])
@pytest.mark.parametrize("name,T", EVERY_CORRUPTED,
                         ids=[n for n, _ in EVERY_CORRUPTED])
def test_readers_on_corrupted_tables(name, T, degree):
    """The certificate is the one it was; ``delta_norms`` refuses exactly
    where the pattern fails, ``algebra`` and ``diagonal`` exactly where
    it fails or two images overlap or one vanishes, and otherwise each
    matches the dense path: the operator norm of the whole image (the
    blocks' largest on valid tables) and the ``row_span`` spans."""
    R = realize(T, degree)
    cert = is_cartan_pair(R)
    assert (cert.regular, cert.expectation_faithful,
            cert.masa_defect) == CERTIFIED[name]
    readers = {"delta_norms": R.delta_norms,
               "algebra": lambda: R.algebra, "diagonal": lambda: R.diagonal}
    if not ref_pattern(R):
        refused = set(readers)
    else:
        N = R.total_dim
        want = np.linalg.norm(ref_delta_images(R).reshape(-1, N, N), 2,
                              axis=(1, 2))
        assert ulps_apart(R.delta_norms(), want).max() <= 8
        refused = set() if _disjoint_and_nonzero(R) else \
            {"algebra", "diagonal"}
    for reader, read in readers.items():
        if reader in refused:
            with pytest.raises(OutsideFibers):
                read()
    if not refused:
        _same_algebra(R.algebra, ref_algebra(R))
        _same_algebra(R.diagonal, ref_diagonal(R))


def test_corrupted_sweep_sees_every_outcome():
    """The sweep holds tables that every reader refuses, tables only the
    spans refuse (an image vanishes, or two overlap), and tables no reader
    refuses, entries off the blocks among them."""
    pattern = [ref_pattern(realize(T)) for _, T in EVERY_CORRUPTED]
    spans = [ok and _disjoint_and_nonzero(realize(T))
             for ok, (_, T) in zip(pattern, EVERY_CORRUPTED)]
    assert sorted(CERTIFIED) == sorted(n for n, _ in EVERY_CORRUPTED)
    assert not all(pattern) and any(pattern)
    assert any(p and not s for p, s in zip(pattern, spans)) and any(spans)
    R = realize(CORRUPTED["overlapping deltas"])
    assert ref_pattern(R) and len(row_span(ref_delta_images(R))) == 3
    assert not _disjoint_and_nonzero(R)
    R = realize(_across_blocks())
    assert R.delta_norms()[R.twist.groupoid.arrays.index["c"]] == 2.0
    assert ref_delta_norms(R)[R.twist.groupoid.arrays.index["c"]] == 1.0


# --- no dense path ----------------------------------------------------------

def _counting(monkeypatch, owner, name, calls):
    real = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return real(*args, **kwargs)
    monkeypatch.setattr(owner, name, counted)


def _count_linear_algebra(monkeypatch):
    """Count every call into np.linalg, the containment tests and the
    spans of ``matalg``, under each name ``reduced`` binds them to."""
    calls = []
    for name in dir(np.linalg):
        if callable(getattr(np.linalg, name)) and not name.startswith("_") \
                and not isinstance(getattr(np.linalg, name), type):
            _counting(monkeypatch, np.linalg, name, calls)
    for name in ("contains_all", "contains"):
        _counting(monkeypatch, cartankit.matalg.FdStarAlgebra, name, calls)
    for module in (cartankit.matalg, cartankit.reduced):
        for name in ("span_residuals", "row_span", "_algebra_from_rows"):
            if hasattr(module, name):
                _counting(monkeypatch, module, name, calls)
    return calls


NO_DENSE = [pair_groupoid(8),
            disjoint_union(klein_four_groupoid(), pair_groupoid(6))]


@pytest.mark.parametrize("G", NO_DENSE, ids=["pair8", "k4s_pair6"])
def test_no_linear_algebra(G, monkeypatch):
    """is_cartan_pair calls nothing in np.linalg, no containment test and
    never builds ``R.diagonal``."""
    T = random_coboundary(G, np.random.default_rng(1), ("A.k",))
    R = realize(T)
    calls = _count_linear_algebra(monkeypatch)
    cert = is_cartan_pair(R)
    assert calls == []
    assert "diagonal" not in R.__dict__
    assert cert.regular and cert.expectation_faithful
    # the counters do count: the dense path trips them
    ref_cartan_certificate(R)
    assert "contains_all" in calls and "eigvalsh" in calls


@pytest.mark.parametrize("G", NO_DENSE, ids=["pair8", "k4s_pair6"])
def test_pattern_readers_call_no_linear_algebra(G, monkeypatch):
    """``delta_norms``, ``algebra`` and ``diagonal`` call nothing in
    np.linalg and no span, and the dense delta stack is gone from src/."""
    R = realize(random_coboundary(G, np.random.default_rng(2), ("A.k",)))
    calls = _count_linear_algebra(monkeypatch)
    R.delta_norms(), R.algebra, R.diagonal
    assert calls == []
    # the counters do count: the dense spans trip them
    ref_algebra(R)
    assert "row_span" in calls and "svd" in calls
    assert not hasattr(ReducedAlgebra, "_delta_images")
    src = pathlib.Path(cartankit.reduced.__file__).parent
    for path in sorted(src.glob("*.py")):
        assert "_delta_images" not in path.read_text(), path.name


# --- one tolerance policy -----------------------------------------------

#: The tolerance table at the top of ``matalg``, with its values.
TOLERANCES = {"EPS": 1e-9, "RANK_TOL": 1e-8, "NORMALIZER_TOL": 1e-7,
              "STATE_TOL": 1e-7, "COVER_MATCH_TOL": 1e-6,
              "COCYCLE_TOL": 1e-12}
#: The ``--tolerance`` flag's range check, the one other place a float
#: literal with an exponent is allowed.
FLAG_RANGE = {("cli.py", "1e-14"), ("cli.py", "1e-4")}


def _exponent_literals(path):
    """(line, text) of each float literal written like 1e-7 in the code of
    a source file, docstrings and comments aside (they are no numbers),
    and the table's own assignments aside in ``matalg``."""
    source = path.read_text()
    tree = ast.parse(source)
    table = {id(node.value) for node in tree.body
             if path.name == "matalg.py" and isinstance(node, ast.Assign)
             and getattr(node.targets[0], "id", None) in TOLERANCES}
    return [(node.lineno, ast.get_source_segment(source, node))
            for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and type(node.value) is float
            and id(node) not in table
            and re.search(r"\de-\d", ast.get_source_segment(source, node))]


def test_tolerances_named_once_in_matalg():
    """Every cut in src/ reads the table in ``matalg``: no other float
    literal like 1e-7 appears in code, and the modules that name a cut
    read it from there, with the value it has always had."""
    for name, value in TOLERANCES.items():
        assert getattr(cartankit.matalg, name) == value
    assert cartankit.reduced.NORMALIZER_TOL is cartankit.matalg.NORMALIZER_TOL
    assert cartankit.twist.COCYCLE_TOL is cartankit.matalg.COCYCLE_TOL
    src = pathlib.Path(cartankit.matalg.__file__).parent
    for path in sorted(src.glob("*.py")):
        for line, text in _exponent_literals(path):
            assert (path.name, text) in FLAG_RANGE, (path.name, line, text)
        if path.name != "matalg.py":
            assert not re.search(r"^_?[A-Z_]*(TOL|EPS)\b\s*=",
                                 path.read_text(), re.M), path.name


#: The functions whose tolerance keyword no caller set, now read from the
#: table.
FIXED_CUTS = (
    make_inclusion, beta, is_compatible_state,
    relative_commutant, minimal_projections, ideal_generated_by,
    is_cartan_pair, Eigenfunctional.equal, Eigenfunctional.phase_class_equal,
    ModState.close_to, canonical_phase, germ_expectation_criterion,
    _canonical_phases)


def test_fixed_cuts_take_no_tolerance():
    for fn in FIXED_CUTS:
        params = inspect.signature(fn).parameters
        assert not {"eps", "tol"} & set(params), fn.__qualname__


# --- no numpy.random in src/ ---------------------------------------------

def ref_block_structure(A):
    """Block sizes from a seeded numpy.random split of the centre, as
    ``matalg.block_structure`` once read them."""
    split = _minimal_projections(center(A), EPS,
                                 np.random.default_rng(0x5EED).standard_normal)
    sizes = [round(np.sqrt(rank(_vec(p @ A.stack @ p)))) for p in split]
    return tuple(sorted(sizes))


def test_block_structure_matches_random_split():
    rng = np.random.default_rng(3)
    algebras = [realize(T).algebra for T in random_twist_corpus(8, seed=9)]
    algebras += [realize(_k4s_pair(k, rng)).algebra for k in (1, 2)]
    algebras += [realize(k4_nontrivial_sigma(klein_four_groupoid()), d)
                 .algebra for d in (1, -1)]
    algebras += [mndn_inclusion(3).C, mndn_inclusion(3).D]
    for A in algebras:
        assert block_structure(A) == ref_block_structure(A)


def test_cstar_draws_nothing_random(tmp_path, monkeypatch, capsys):
    """``cstar`` on a twist with nontrivial isotropy splits the isotropy
    algebra with fixed coefficients, and ``analyze``, ``weyl`` and
    ``envelope`` split D and the centres so too: no numpy.random generator
    is seeded."""
    path = tmp_path / "k4s_pair3.json"
    path.write_text(json.dumps(twist_to_json(
        _k4s_pair(3, np.random.default_rng(2)))))
    inc_path = tmp_path / "m3.json"
    inc_path.write_text(json.dumps(inclusion_to_json(mndn_inclusion(3))))

    def refuse(*args, **kwargs):
        raise AssertionError("numpy.random seeded")
    monkeypatch.setattr(np.random, "default_rng", refuse)
    assert cli.main(["cstar", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["block_structure"] == [2, 3]
    for command in ("analyze", "weyl", "envelope"):
        assert cli.main([command, str(inc_path)]) == 0
        assert json.loads(capsys.readouterr().out)


def test_src_draws_nothing_random():
    src = pathlib.Path(cartankit.matalg.__file__).parent
    for path in sorted(src.glob("*.py")):
        assert "random" not in path.read_text(), path.name

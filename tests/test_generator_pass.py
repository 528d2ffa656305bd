"""The generator pass: associativity and the cocycle identity checked on the
triples whose third factor lies in a generating set (Light's test and its
cocycle analogue, ``groupoid._generator_pass``), with the full triple pass
kept for listing violations.

References kept here: the full pass itself (the generator pass switched
off), the loop validators of ``test_table_arrays`` and a loop closure that
adds missing arrows one at a time, as the rule for the generating set
reads.
"""

import dataclasses
import json
import subprocess
import sys

import numpy as np
import pytest

import cartankit.groupoid
from cartankit.groupoid import (
    GroupoidArrays,
    cyclic_groupoid,
    disjoint_union,
    group_groupoid,
    klein_four_groupoid,
    pair_groupoid,
    validate,
)
from cartankit.serialize import twist_to_json
from cartankit.twist import (
    COCYCLE_TOL,
    CocycleTwist,
    trivial_twist,
    validate_cocycle,
    validate_twist,
)
from conftest import random_coboundary, random_twist_corpus
from test_table_arrays import ref_validate, ref_validate_cocycle
from test_twist_compile import ALL, LOOP_READABLE, ids


# --- references -------------------------------------------------------------------

def ref_generators(G):
    """The star, then the first missing arrow one at a time, each followed
    by the closure under right products by loops over names."""
    t = G.arrays
    rep = {x: min((G.rng[a] for a in G.arrows if G.src[a] == x),
                  key=t.unit_index.__getitem__) for x in G.units}
    S = []
    for x in G.units:
        if rep[x] != x:
            a = next(a for a in G.arrows
                     if G.src[a] == rep[x] and G.rng[a] == x)
            S += [a, G.inv[a]]
    while True:
        reached = set(S)
        todo = list(S)
        while todo:
            w = todo.pop()
            for s in S:
                ws = G.compose(w, s)
                if ws is not None and ws not in reached:
                    reached.add(ws)
                    todo.append(ws)
        missing = [a for a in G.arrows if a not in reached]
        if not missing:
            return sorted(S, key=t.index.__getitem__)
        S.append(missing[0])


def ref_word_lengths(G, S):
    """The least k such that each arrow is a left-nested word of k arrows
    of S, by breadth-first search over right products."""
    depth = {s: 1 for s in S}
    level = list(S)
    while level:
        nxt = []
        for w in level:
            for s in S:
                ws = G.compose(w, s)
                if ws is not None and ws not in depth:
                    depth[ws] = depth[w] + 1
                    nxt.append(ws)
        level = nxt
    return depth


def full_pass(T):
    """validate_twist with the generator pass switched off."""
    real = cartankit.groupoid._generator_pass
    cartankit.groupoid._generator_pass = lambda *args: False
    try:
        return validate_twist(T)
    finally:
        cartankit.groupoid._generator_pass = real


@pytest.fixture
def always(monkeypatch):
    """The generator pass tried on tables of every size."""
    monkeypatch.setattr(cartankit.groupoid, "_FULL_PASS_MAX", -1)


@pytest.fixture
def decided(monkeypatch):
    """The verdicts of the generator pass, True when it ruled out every
    violation (and the full pass did not run)."""
    out = []
    real = cartankit.groupoid._generator_pass

    def recorded(*args):
        out.append(real(*args))
        return out[-1]

    monkeypatch.setattr(cartankit.groupoid, "_generator_pass", recorded)
    return out


def _k4s_pair(n, rng):
    G = disjoint_union(klein_four_groupoid(prefix="k"), pair_groupoid(n))
    return random_coboundary(G, rng, ("A.k",))


LARGE = [("pair20", lambda rng: random_coboundary(pair_groupoid(20), rng)),
         ("cyclic48", lambda rng: random_coboundary(cyclic_groupoid(48), rng)),
         ("k4s_pair16", lambda rng: _k4s_pair(16, rng))]


# --- the generating set -------------------------------------------------------------

@pytest.mark.parametrize("label,T", ALL, ids=ids)
def test_generators_as_added_one_at_a_time(label, T):
    G = T.groupoid
    if G.axiom_violations:
        return
    S, L = G.arrays.generators
    assert list(G.arrays.names[S]) == ref_generators(G)
    depth = ref_word_lengths(G, list(G.arrays.names[S]))
    assert set(depth) == set(G.arrows)
    assert max(depth.values(), default=0) == L


@pytest.mark.parametrize("label,make,size,length", [
    ("pair20", LARGE[0][1], 38, 2), ("cyclic48", LARGE[1][1], 2, 47),
    ("k4s_pair16", LARGE[2][1], 33, 2)])
def test_generating_sets_of_the_large_tables(label, make, size, length):
    G = make(np.random.default_rng(0)).groupoid
    S, L = G.arrays.generators
    assert (len(S), L) == (size, length)
    assert max(ref_word_lengths(G, list(G.arrays.names[S])).values()) == L


def dihedral_groupoid(n):
    """The dihedral group of order 2n over one unit: element "sr" is
    t^s rho^r, with t rho t = rho^-1."""
    el = [f"{s}{r}" for s in (0, 1) for r in range(n)]

    def mult(x, y):
        s, r, u, v = int(x[0]), int(x[1:]), int(y[0]), int(y[1:])
        return f"{(s + u) % 2}{(r + (v if s == 0 else -v)) % n}"

    return group_groupoid(el, mult,
                          lambda x: x if x[0] == "1" else f"0{-int(x[1:]) % n}",
                          "00", prefix="d")


@pytest.mark.parametrize("n", range(3, 9))
def test_word_lengths_are_the_least(n):
    """S = {1, rho, t} on D_n is found in three steps, and rho^k is
    reached by rotation before t is in S; the search restarts when t is
    added, so L is the shortest words' n // 2 + 1, not n - 1."""
    G = dihedral_groupoid(n)
    S, L = G.arrays.generators
    assert list(G.arrays.names[S]) == ref_generators(G) == ["d00", "d01",
                                                             "d10"]
    assert L == max(ref_word_lengths(G, ref_generators(G)).values()) == \
        n // 2 + 1


# --- the same lines as the full pass and the loops -----------------------------------

@pytest.mark.parametrize("label,T", ALL, ids=ids)
def test_same_lines_as_the_full_pass(label, T, always):
    G = T.groupoid
    assert validate_twist(T) == full_pass(T)
    assert validate_twist(T) == validate(G) + validate_cocycle(T)
    if label in LOOP_READABLE:
        assert validate(G) == ref_validate(G)
    if not validate(G):
        assert validate_cocycle(T) == ref_validate_cocycle(T)


@pytest.mark.parametrize("T", random_twist_corpus(40, seed=23),
                         ids=lambda T: str(len(T.sigma)))
def test_corpus_decided_by_generators(T, always, decided):
    assert validate_twist(T) == [] == ref_validate_cocycle(T)
    assert validate(T.groupoid) == [] == ref_validate(T.groupoid)
    assert decided == [True, True]


def _single_entry_corruptions(G):
    """Every compose entry replaced by every other arrow."""
    for (a, b), ab in G.compose_table.items():
        for c in G.arrows:
            if c != ab:
                yield dataclasses.replace(
                    G, compose_table={**G.compose_table, (a, b): c})


@pytest.mark.parametrize("G", [pair_groupoid(3), cyclic_groupoid(5),
                               klein_four_groupoid(prefix="k"),
                               disjoint_union(cyclic_groupoid(3),
                                              pair_groupoid(2))],
                         ids=lambda G: str(len(G.arrows)))
def test_every_single_compose_corruption(G, always):
    for H in _single_entry_corruptions(G):
        assert validate(H) == ref_validate(H)
        T = trivial_twist(H)
        assert validate_twist(T) == full_pass(T)


def ref_missing_pairs(t, n):
    """The |arrows| x |arrows| mask ``groupoid._missing_pairs`` replaced:
    a n + b for the pairs of listed arrows with r(b) = s(a) that the
    table lacks."""
    src, rng = t.src[:n], t.rng[:n]
    should = src[:, None] == rng[None, :]
    listed = (t.a < n) & (t.b < n)
    should[t.a[listed], t.b[listed]] = False
    return np.flatnonzero(should)


def _missing_pair_cases(G):
    """Every single compose corruption, every single deleted entry, and
    every arrow's source moved to another unit or to an unknown one."""
    yield from _single_entry_corruptions(G)
    for key in G.compose_table:
        yield dataclasses.replace(G, compose_table={
            k: v for k, v in G.compose_table.items() if k != key})
    for a in G.arrows:
        for x in G.units + ("unknown",):
            if x != G.src[a]:
                yield dataclasses.replace(G, src={**G.src, a: x})


@pytest.mark.parametrize("G", [pair_groupoid(3), cyclic_groupoid(5),
                               klein_four_groupoid(prefix="k"),
                               disjoint_union(cyclic_groupoid(3),
                                              pair_groupoid(2))],
                         ids=lambda G: str(len(G.arrows)))
def test_missing_pairs_match_the_mask(G, monkeypatch):
    """The composable pairs listed by range give the mask's positions,
    and with the mask in their place every axiom line, in order, is the
    same."""
    cases = list(_missing_pair_cases(G))
    lines = [cartankit.groupoid._axiom_lines(H) for H in cases]
    for H in cases:
        t, n = H.arrays, len(H.arrows)
        assert np.array_equal(cartankit.groupoid._missing_pairs(t, n),
                              ref_missing_pairs(t, n))
    assert sum("compose missing" in x for got in lines for x in got) \
        >= len(G.compose_table)
    monkeypatch.setattr(cartankit.groupoid, "_missing_pairs",
                        ref_missing_pairs)
    assert [cartankit.groupoid._axiom_lines(H) for H in cases] == lines


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("factor", [1j, -1.0, np.exp(1e-9j), np.exp(1e-13j)])
def test_every_single_phase_corruption(seed, factor, always):
    rng = np.random.default_rng(seed)
    for T in (random_coboundary(pair_groupoid(3), rng),
              random_coboundary(cyclic_groupoid(5), rng),
              _k4s_pair(1, rng)):
        for key in T.sigma:
            sigma = dict(T.sigma)
            sigma[key] *= factor
            U = CocycleTwist(T.groupoid, sigma)
            assert validate_twist(U) == full_pass(U) == \
                ref_validate_cocycle(U)


@pytest.mark.parametrize("label,make", LARGE, ids=[x for x, _ in LARGE])
def test_large_tables(label, make, decided):
    T = make(np.random.default_rng(1))
    assert validate_twist(T) == [] == full_pass(T)
    assert decided == [True]
    # one inner phase turned a quarter: the generator triples see it, and
    # the full pass lists the same lines as the loops
    U = _turned(T, np.sqrt(2))
    lines = validate_twist(U)
    assert decided == [True, False]
    assert lines and lines == full_pass(U) == ref_validate_cocycle(U)


# --- near the threshold --------------------------------------------------------------

def _turned(T, defect):
    """T with one inner phase turned so that each triple through it has
    the defect |e^{it} - 1| = defect."""
    units = set(T.groupoid.unit_arrow.values())
    key = sorted(k for k in T.sigma if units.isdisjoint(k))[3]
    sigma = dict(T.sigma)
    sigma[key] *= np.exp(2j * np.arcsin(defect / 2))
    return CocycleTwist(T.groupoid, sigma)


@pytest.mark.parametrize("label,make", LARGE[:2], ids=[x for x, _ in LARGE[:2]])
@pytest.mark.parametrize("unit,scale,generated,bad", [
    ("cut", 0.5, True, False), ("cut", 2.0, False, False),
    ("tol", 0.5, False, False), ("tol", 2.0, False, True)])
def test_near_threshold(label, make, unit, scale, generated, bad, decided):
    """Defects on either side of the cut tol / (4L) and of tol: below the
    cut the generator triples decide; above it the full pass runs, and
    lists a line only past tol, as the loops do."""
    T = make(np.random.default_rng(2))
    L = T.groupoid.arrays.generators[1]
    U = _turned(T, scale * COCYCLE_TOL / (4 * L if unit == "cut" else 1))
    lines = validate_twist(U)
    assert decided == [generated]
    assert bool(lines) is bad
    assert lines == full_pass(U) == ref_validate_cocycle(U)


def test_cut_not_tried_past_the_rounding_bound(decided):
    """At tol 1e-12 the bound B + eta <= tol holds up to L = 77: Z/80
    (L = 79) goes straight to the full pass, with the same lines."""
    T = random_coboundary(cyclic_groupoid(80), np.random.default_rng(3))
    assert T.groupoid.arrays.generators[1] == 79
    assert validate_twist(T) == [] == full_pass(T)
    assert decided == [False]
    assert validate(T.groupoid) == []
    assert decided == [False, True]  # associativity alone is exact


# --- counts ---------------------------------------------------------------------------

def test_pair20_enumerates_the_generator_triples(monkeypatch):
    calls = []
    real = GroupoidArrays.triples

    def counted(self, p, third=None):
        chunks = list(real(self, p, third))
        calls.append(sum(len(ch[0]) for ch in chunks))
        return iter(chunks)

    monkeypatch.setattr(GroupoidArrays, "triples", counted)
    T = random_coboundary(pair_groupoid(20), np.random.default_rng(4))
    assert validate_twist(T) == []
    assert calls == [8000 * 38 // 20] == [15200]


def test_small_tables_skip_the_generating_set():
    T = random_coboundary(pair_groupoid(6), np.random.default_rng(5))
    assert validate_twist(T) == []
    assert "generators" not in T.groupoid.arrays.__dict__


def test_commands_import_no_masked_arrays(tmp_path):
    """numpy's plain ``unique`` imports ``numpy.ma`` on first use (~15 ms
    a process); the generating set uses the ``return_index`` form."""
    path = tmp_path / "t.json"
    T = random_coboundary(pair_groupoid(20), np.random.default_rng(6))
    path.write_text(json.dumps(twist_to_json(T)))
    code = ("import sys\nfrom cartankit import cli\n"
            "for cmd in ('validate', 'cstar'):\n"
            f"    cli.main([cmd, {str(path)!r}])\n"
            "sys.exit(int('numpy.ma' in sys.modules))")
    assert subprocess.run([sys.executable, "-c", code],
                          capture_output=True).returncode == 0

"""Twist files compiled straight to the integer tables, and the one triple
pass that checks associativity and the cocycle identity together.

References kept here: the numbering of ``GroupoidArrays`` by one
``setdefault`` per name, the compile of the compose entries through the
dict {(a, b): ab} and of the cocycle through a sigma dict, as they were
before the compile read names by lookup, numbered the entries straight
into the arrays and kept both tables as views of them.
"""

import dataclasses
import gc
import json
import weakref

import numpy as np
import pytest

import cartankit.groupoid
import cartankit.serialize
from cartankit import cli
from cartankit.errors import ParseError
from cartankit.groupoid import (
    FiniteGroupoid,
    GroupoidArrays,
    _PairTable,
    build_groupoid,
    cyclic_groupoid,
    disjoint_union,
    klein_four_groupoid,
    pair_groupoid,
    validate,
)
from cartankit.serialize import (
    groupoid_from_json,
    groupoid_to_json,
    twist_from_json,
    twist_to_json,
)
from cartankit.twist import (
    COCYCLE_TOL,
    CocycleTwist,
    conjugate_twist,
    restrict_twist,
    trivial_twist,
    validate_cocycle,
    validate_twist,
)
from conftest import (
    coboundary_twist,
    k4_nontrivial_sigma,
    random_coboundary,
    random_twist_corpus,
)
from test_triples import ref_triples
from test_table_arrays import (
    TWISTS,
    _corrupted_groupoids,
    _corrupted_twists,
    ref_validate,
    ref_validate_cocycle,
)


# --- references -----------------------------------------------------------------

def ref_numbering(G):
    """Arrow and unit numbers by one setdefault per name: each arrow's
    ends and inverse, each pair's a, b and ab, then the unit arrows."""
    codes = {a: k for k, a in enumerate(G.arrows)}
    units = {x: k for k, x in enumerate(
        dict.fromkeys(G.units + tuple(G.unit_arrow)))}
    arrow = lambda x: codes.setdefault(x, len(codes))
    unit = lambda x: units.setdefault(x, len(units))
    ends = [(unit(G.src.get(a)), unit(G.rng.get(a)), arrow(G.inv.get(a)))
            for a in G.arrows]
    abc = [(arrow(a), arrow(b), arrow(ab))
           for (a, b), ab in G.compose_table.items()]
    unit_arrow = [arrow(G.unit_arrow[x]) if x in G.unit_arrow else -1
                  for x in units]
    return codes, units, ends, abc, unit_arrow


def ref_build_groupoid(units, arrow_specs, compose_pairs=None,
                       unit_arrows=None):
    """build_groupoid through the dict {(a, b): ab} over the entries (a
    repeated pair at its first position, with its last value), whose
    arrays ``GroupoidArrays`` compiles from that dict."""
    src = {a: s for a, s, _, _ in arrow_specs}
    rng = {a: r for a, _, r, _ in arrow_specs}
    inv = {a: i for a, _, _, i in arrow_specs}
    table = {(a, b): c for a, b, c in (compose_pairs or [])}
    arrows = tuple(sorted(s[0] for s in arrow_specs))
    if unit_arrows is None:
        unit_arrows = {}
        for a in arrows:
            if src[a] == rng[a] and table.get((a, a)) == a:
                unit_arrows[src[a]] = a
    return FiniteGroupoid(units=tuple(sorted(units)), arrows=arrows,
                          src=src, rng=rng, inv=inv, compose_table=table,
                          unit_arrow=dict(unit_arrows))


def _first_repeat(keys):
    """The first key that occurs a second time, None if none does."""
    seen = set()
    for k in keys:
        if k in seen:
            return k
        seen.add(k)


def ref_groupoid_from_json(data):
    """``groupoid_from_json`` over ``ref_build_groupoid``, with its
    refusals in their order."""
    try:
        specs = [(a["id"], a["src"], a["rng"], a["inv"])
                 for a in data["arrows"]]
        pairs = data.get("compose", [])
        G = ref_build_groupoid(data["units"], specs, pairs,
                               data.get("unit_arrows"))
        if len(G.src) != len(specs):
            raise ParseError("repeated arrow id "
                             f"{_first_repeat(s[0] for s in specs)!r}")
        if len(set(G.units)) != len(G.units):
            raise ParseError("repeated unit id "
                             f"{_first_repeat(data['units'])!r}")
        if len(G.arrays.pairs) != len(pairs):
            a, b = _first_repeat(tuple(e[:2]) for e in pairs)
            raise ParseError(f"repeated compose entry for pair "
                             f"({a!r}, {b!r})")
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed groupoid object: {exc}") from exc
    return G


def ref_twist_from_json(data):
    """sigma as a dict over the compose table, overwritten entry by entry."""
    G = ref_groupoid_from_json(data["groupoid"] if "groupoid" in data
                               else data)
    sigma = {pair: 1.0 + 0.0j for pair in G.compose_table}
    for (a, b), (re, im) in data.get("cocycle", []):
        assert (a, b) in sigma
        sigma[(a, b)] = complex(re, im)
    return CocycleTwist(groupoid=G, sigma=sigma)


def ref_cocycle_error(G, entries):
    """The message of the first entry a loop over the cocycle refuses: on
    its shape, then on its pair, then on complex() of its value."""
    try:
        for (a, b), (re, im) in entries:
            if (a, b) not in G.compose_table:
                return f"cocycle entry on non-composable pair ({a!r}, {b!r})"
            complex(re, im)
    except (TypeError, ValueError) as exc:
        return f"malformed cocycle entry: {exc}"


def ref_compile(data):
    """(the twist, None) from the dict compile of a twist file, or (None,
    the message of the ParseError it is refused with)."""
    try:
        G = ref_groupoid_from_json(data["groupoid"] if "groupoid" in data
                                   else data)
        entries = data.get("cocycle", [])
        error = ref_cocycle_error(G, entries)
        if error is not None:
            raise ParseError(error)
        key = _first_repeat((a, b) for (a, b), _ in entries)
        if key is not None:
            raise ParseError(f"repeated cocycle entry for pair "
                             f"({key[0]!r}, {key[1]!r})")
    except ParseError as exc:
        return None, str(exc)
    return ref_twist_from_json(data), None


def ref_associativity(G):
    """The associativity lines by names: the pairs of listed arrows in
    sorted order, each with every listed c whose range is b's source."""
    listed = set(G.arrows)
    bad = []
    for a, b in sorted(k for k in G.compose_table if listed.issuperset(k)):
        for c in G.arrows:
            bc = G.compose(b, c)
            if G.src.get(b) == G.rng.get(c) and bc is not None and \
                    G.compose(G.compose(a, b), c) != G.compose(a, bc):
                bad.append(f"associativity fails at ({a!r},{b!r},{c!r})")
    return bad


# --- inputs ---------------------------------------------------------------------

def _unlisted_names():
    """Tables that use names they do not list, in several places, so that
    the numbering of unlisted names depends on the order of the pass."""
    P, C = pair_groupoid(3), cyclic_groupoid(4)
    inv = dict(P.inv, **{"u1<-u2": "nope", "u2<-u0": "zz"})
    table = {**P.compose_table, ("u0<-u1", "yy"): "nope",
             ("xx", "u1<-u0"): "yy", ("zz", "xx"): "ww"}
    unit_arrow = dict(C.unit_arrow, e0="c9")
    src = dict(P.src, **{"u0<-u1": None, "u1<-u0": "v9"})
    return [
        ("inverse and composites", dataclasses.replace(
            P, inv=inv, compose_table=table)),
        ("compose entries", dataclasses.replace(P, compose_table=table)),
        ("unit arrow", dataclasses.replace(C, unit_arrow=unit_arrow)),
        ("sources", dataclasses.replace(P, src=src, inv=inv)),
    ]


def _corrupted_pair(n, seed):
    """A coboundary over pair(n) with one inner phase rotated, as the
    benchmark's corrupted cocycle is."""
    rng = np.random.default_rng(seed)
    T = random_coboundary(pair_groupoid(n), rng)
    units = set(T.groupoid.unit_arrow.values())
    inner = sorted(k for k in T.sigma if units.isdisjoint(k))
    sigma = dict(T.sigma)
    key = inner[int(rng.integers(len(inner)))]
    sigma[key] *= np.exp(2j * np.pi * (0.25 + 0.5 * rng.random()))
    return CocycleTwist(T.groupoid, sigma)


def _edge_tables():
    """Tables whose compose table is empty, or holds unit pairs only."""
    units = ("x", "y", "z")
    return [
        ("no units", groupoid_from_json({"units": [], "arrows": [],
                                         "compose": [],
                                         "unit_arrows": {}})),
        ("unit pairs only", build_groupoid(
            units, [(f"e{x}", x, x, f"e{x}") for x in units],
            [(f"e{x}", f"e{x}", f"e{x}") for x in units])),
    ]


def _all_twists():
    out = [(str(len(T.sigma)), T) for T in TWISTS]
    out += [(label, trivial_twist(G)) for label, G in
            _corrupted_groupoids() + _unlisted_names() + _edge_tables()]
    out += _corrupted_twists()
    out.append(("corrupted pair12", _corrupted_pair(12, 3)))
    return out


ALL = _all_twists()
#: The tables ``ref_validate`` reads: all but the compose entries that
#: name unlisted arrows.
LOOP_READABLE = {label for label, _ in ALL} - {"inverse and composites",
                                               "compose entries"}
ids = lambda v: v if isinstance(v, str) else ""


# --- numbering --------------------------------------------------------------------

@pytest.mark.parametrize("label,T", ALL, ids=ids)
def test_numbering_matches_setdefault(label, T):
    G = T.groupoid
    codes, units, ends, abc, unit_arrow = ref_numbering(G)
    t, n = G.arrays, len(G.arrows)
    assert list(t.names[:-1]) == list(codes)
    assert t.unit_index == units
    want = np.array(ends, dtype=np.intp).reshape(-1, 3)
    assert np.array_equal(t.src[:n], want[:, 0])
    assert np.array_equal(t.rng[:n], want[:, 1])
    assert np.array_equal(t.inv[:n], want[:, 2])
    assert (t.src[n:] == -1).all() and (t.inv[n:] == -1).all()
    want = np.array(abc, dtype=np.intp).reshape(-1, 3)
    assert np.array_equal(np.stack([t.a, t.b, t.ab], axis=1), want)
    assert np.array_equal(t.unit_arrow, unit_arrow)


def test_unlisted_names_numbered_in_pass_order():
    G = dict(_unlisted_names())["inverse and composites"]
    names = list(G.arrays.names[len(G.arrows):-1])
    # the inverses first, then the compose entries in table order
    assert names == ["nope", "zz", "yy", "xx", "ww"]


# --- compile ---------------------------------------------------------------------

@pytest.mark.parametrize("label,T", ALL, ids=ids)
def test_compile_matches_sigma_dict(label, T):
    data = twist_to_json(T)
    got, want = twist_from_json(data), ref_twist_from_json(data)
    assert got.sigma == want.sigma
    assert list(got.sigma) == list(want.sigma)
    assert np.array_equal(got.sigma_vector, want.sigma_vector)


_GOOD = [["u0<-u1", "u1<-u0"], [0.0, 1.0]]
_OFF_TABLE = [["u0<-u1", "u0<-u1"], [1.0, 0.0]]
_STRING = [["u1<-u0", "u0<-u1"], ["1", 0]]


_FIRST_REFUSED = [
    [_OFF_TABLE, _STRING], [_STRING, _OFF_TABLE], [_GOOD, _OFF_TABLE],
    [_OFF_TABLE, [1.0]], [[1.0], _OFF_TABLE], [_GOOD, 7, _STRING],
    [[["u0<-u1", "u0<-u1"], [None, 0]]], [_GOOD, [_GOOD[0], [0, None]]],
    [[_GOOD[0], [1.0]]], [[_GOOD[0], [1, 0, 0]]],
    [[["u0<-u1", "u1<-u0", "u0<-u0"], [1, 0]]],
    [[[["u0<-u1"], "u1<-u0"], [1, 0]]],
]


@pytest.mark.parametrize("entries", _FIRST_REFUSED, ids=str)
def test_first_refused_entry_in_file_order(entries):
    G = pair_groupoid(2)
    data = {"groupoid": groupoid_to_json(G), "cocycle": entries}
    with pytest.raises(ParseError) as err:
        twist_from_json(data)
    assert str(err.value) == ref_cocycle_error(G, entries)


def test_parts_checked_one_by_one_only_past_a_non_number(monkeypatch):
    """A file whose parts are all JSON numbers is read with one type-set
    test; the per-entry check runs only to find the first bad entry."""
    calls = []
    real = cartankit.serialize._is_number
    monkeypatch.setattr(cartankit.serialize, "_is_number",
                        lambda parts: calls.append(len(parts)) or real(parts))
    T = random_coboundary(pair_groupoid(3), np.random.default_rng(2))
    data = twist_to_json(T)
    assert twist_from_json(data).sigma == T.sigma
    assert calls == []
    data["cocycle"][4][1] = [0.5, "0.5"]
    with pytest.raises(ParseError):
        twist_from_json(data)
    assert calls == [len(data["cocycle"])] * 2


def test_phase_parts_any_json_number():
    """Integers too large for an int64, booleans and floats are read as
    complex() reads them; an integer past the float range is refused."""
    G = pair_groupoid(2)
    parts = [[10 ** 20, 0], [True, False], [-(10 ** 30), 0.5]]
    pairs = list(G.compose_table)[:3]
    data = {"groupoid": groupoid_to_json(G),
            "cocycle": [[list(p), v] for p, v in zip(pairs, parts)]}
    T = twist_from_json(data)
    assert [T.sigma[p] for p in pairs] == [complex(*v) for v in parts]
    data["cocycle"][1][1] = [0, 10 ** 400]
    with pytest.raises(ParseError, match="^malformed cocycle entry: int "
                       "too large to convert to float$"):
        twist_from_json(data)


def test_entries_on_pairs_with_unlisted_names():
    G = dict(_unlisted_names())["compose entries"]
    data = twist_to_json(trivial_twist(G))
    data["cocycle"] = [[["xx", "u1<-u0"], [0.0, 1.0]],
                       [["u0<-u1", "u1<-u0"], [-1.0, 0.0]]]
    T = twist_from_json(data)
    assert T.sigma[("xx", "u1<-u0")] == 1j
    assert T.sigma[("u0<-u1", "u1<-u0")] == -1
    assert np.array_equal(T.sigma_vector, ref_twist_from_json(data)
                          .sigma_vector)


def test_phase_vector_kept():
    """Every twist built from a phase vector keeps it as sigma_vector, and
    sigma is read from it."""
    rng = np.random.default_rng(2)
    G = pair_groupoid(3)
    lam = {a: np.exp(2j * np.pi * rng.random()) for a in G.arrows}
    for e in G.unit_arrow.values():
        lam[e] = 1.0
    T = coboundary_twist(G, lam)
    twists = [trivial_twist(G), T, conjugate_twist(T),
              restrict_twist(T, G.arrows), twist_from_json(twist_to_json(T))]
    for S in twists:
        assert "sigma_vector" in S.__dict__
        pairs = S.groupoid.arrays.pairs
        assert list(S.sigma) == list(pairs)
        assert np.array_equal(S.sigma_vector,
                              np.array([S.sigma[p] for p in pairs]))


def test_values_keep_signed_zeros():
    data = twist_to_json(trivial_twist(cyclic_groupoid(3)))
    data["cocycle"] = [[["c1", "c2"], [1.0, -0.0]], [["c2", "c1"], [-0.0, 1]],
                       [["c1", "c1"], [True, False]]]
    T = twist_from_json(data)
    for key, (re, im) in ((("c1", "c2"), (1.0, -0.0)),
                          (("c2", "c1"), (-0.0, 1.0)),
                          (("c1", "c1"), (1.0, 0.0))):
        z = T.sigma[key]
        assert (z.real, z.imag) == (re, im)
        assert np.copysign(1, z.imag) == np.copysign(1, im)
        assert np.copysign(1, z.real) == np.copysign(1, re)


# --- against the dict compile ----------------------------------------------------

def _file(T, seed=None):
    """T's file as JSON decodes it; with a seed, its compose and cocycle
    entries shuffled out of sorted order."""
    data = json.loads(json.dumps(twist_to_json(T)))
    if seed is not None:
        rng = np.random.default_rng(seed)
        for entries in (data["groupoid"]["compose"], data["cocycle"]):
            entries[:] = [entries[k] for k in rng.permutation(len(entries))]
    return data


def _edited(data, edit):
    data = json.loads(json.dumps(data))
    edit(data["groupoid"], data["cocycle"])
    return data


def _corrupted_files():
    """One corrupted entry per file, each of the kinds the compile refuses
    or reads (a file's refusals are matched in ``test_cli.py``)."""
    base = _file(random_coboundary(pair_groupoid(3), np.random.default_rng(8)))
    k = 5
    entry = base["groupoid"]["compose"][k]

    def off_pair(edit):
        """The edit, with the cocycle entry on the edited pair dropped."""
        def both(g, c):
            edit(g, c)
            c[:] = [e for e in c if e[0] != entry[:2]]
        return both

    edits = {
        "short compose entry": lambda g, c: g["compose"][k].pop(),
        "long compose entry": lambda g, c: g["compose"][k].append("x"),
        "number compose entry": lambda g, c: g["compose"].__setitem__(k, 7),
        "string compose entry": off_pair(
            lambda g, c: g["compose"].__setitem__(k, "abc")),
        "list name": lambda g, c: g["compose"][k].__setitem__(0, ["u0"]),
        "list composite": lambda g, c: g["compose"][k].__setitem__(2, []),
        "repeated compose entry": lambda g, c: g["compose"].append(
            list(entry)),
        "conflicting compose entry": lambda g, c: g["compose"].insert(
            k, entry[:2] + ["u0<-u0"]),
        "unlisted composite": lambda g, c: g["compose"][k].__setitem__(
            2, "zz"),
        "unlisted factor": off_pair(
            lambda g, c: g["compose"][k].__setitem__(1, "yy")),
        "repeated arrow id": lambda g, c: g["arrows"].append(
            dict(g["arrows"][4])),
        "repeated unit id": lambda g, c: g["units"].append("u1"),
        "list source": lambda g, c: g["arrows"][2].__setitem__("src", []),
        "unit arrows inferred": lambda g, c: g.pop("unit_arrows"),
        "no units": lambda g, c: g.pop("units"),
        "non-composable cocycle entry": lambda g, c: c.append(
            [["u0<-u1", "u0<-u1"], [1.0, 0.0]]),
        "repeated cocycle entry": lambda g, c: c.append(
            [list(c[3][0]), [1.0, 0.0]]),
        "cocycle entry on an unlisted pair": lambda g, c: c.append(
            [["yy", "u0<-u1"], [1.0, 0.0]]),
    }
    out = [(label, _edited(base, edit)) for label, edit in edits.items()]
    pair2 = _file(trivial_twist(pair_groupoid(2)))
    for n, entries in enumerate(_FIRST_REFUSED):
        out.append((f"cocycle entries {n}", _edited(
            pair2, lambda g, c, e=entries: c.extend(e))))
    return out


def _cross_files():
    rng = np.random.default_rng(23)
    twists = [(f"corpus {k}", T) for k, T in
              enumerate(random_twist_corpus(20, seed=29))]
    twists += [(f"pair{n}", random_coboundary(pair_groupoid(n), rng))
               for n in range(3, 9)]
    twists += [("Z/5", random_coboundary(cyclic_groupoid(5), rng)),
               ("K4", trivial_twist(klein_four_groupoid())),
               ("K4 sigma", k4_nontrivial_sigma(klein_four_groupoid()))]
    twists += [(f"K4 sigma + pair{k}", random_coboundary(
        disjoint_union(klein_four_groupoid(prefix="k"), pair_groupoid(k)),
        rng, ("A.k",))) for k in (2, 3, 4)]
    files = [(label, _file(T)) for label, T in twists + ALL]
    files += [(f"pair{n} shuffled", _file(T, seed=n))
              for label, T in twists if label.startswith("pair")
              for n in [int(label[4:])]]
    return files + _corrupted_files()


def _assert_same_groupoid(G, H):
    """G's fields, arrays and table views against the dict compile H's."""
    for field in ("units", "arrows", "src", "rng", "inv", "unit_arrow"):
        assert getattr(G, field) == getattr(H, field), field
    assert list(G.compose_table.items()) == list(H.compose_table.items())
    assert G.compose_table == H.compose_table
    t, r = G.arrays, H.arrays
    assert list(t.pairs) == list(H.compose_table)
    assert len(t.pairs) == len(G.compose_table) == len(H.compose_table)
    for name in ("index", "unit_index", "code"):
        assert getattr(t, name) == getattr(r, name), name
    for name in ("names", "src", "rng", "inv", "unit", "a", "b", "ab",
                 "unit_arrow", "pair_at", "inv_pair", "_ab"):
        assert np.array_equal(getattr(t, name), getattr(r, name)), name
    codes, units, ends, abc, unit_arrow = ref_numbering(H)
    assert list(t.names[:-1]) == list(codes) and t.unit_index == units
    want = np.array(abc, dtype=np.intp).reshape(-1, 3)
    assert np.array_equal(np.stack([t.a, t.b, t.ab], axis=1), want)
    assert np.array_equal(t.unit_arrow, unit_arrow)


CROSS = _cross_files()


@pytest.mark.parametrize("label,data", CROSS, ids=ids)
def test_compile_matches_the_dict_compile(label, data):
    """Every array, every view's contents and every refusal, against the
    compile through the dicts {(a, b): ab} and {(a, b): sigma}."""
    want, error = ref_compile(data)
    if error is not None:
        with pytest.raises(ParseError) as err:
            twist_from_json(data)
        assert str(err.value) == error
        return
    got = twist_from_json(data)
    _assert_same_groupoid(got.groupoid, want.groupoid)
    assert isinstance(got.sigma, _PairTable)
    assert list(got.sigma.items()) == list(want.sigma.items())
    assert got.sigma == want.sigma
    assert np.array_equal(got.sigma_vector, want.sigma_vector)


def test_corrupted_files_refused_or_read():
    """The corrupted files cover refusals of both the tables and the
    cocycle, and files the compile reads."""
    errors = {label: ref_compile(data)[1]
              for label, data in _corrupted_files()}
    assert errors["repeated arrow id"] == "repeated arrow id 'u1<-u1'"
    assert errors["conflicting compose entry"].startswith(
        "repeated compose entry for pair")
    assert errors["list composite"] == ("malformed groupoid object: "
                                        "unhashable type: 'list'")
    assert errors["repeated cocycle entry"].startswith(
        "repeated cocycle entry for pair")
    assert [label for label, e in errors.items() if e is None] == [
        "string compose entry", "unlisted composite", "unlisted factor",
        "unit arrows inferred"]


@pytest.mark.parametrize("infer", [False, True], ids=["given", "inferred"])
@pytest.mark.parametrize("dropped,last", [
    ("u0<-u0", "u2<-u0"), ("qq", "u2<-u0"), ("u0<-u0", "zz"), ("qq", "zz")])
def test_library_repeated_pair(dropped, last, infer):
    """``build_groupoid`` keeps a repeated pair at its first position with
    its last value, as a dict does; a value it drops is numbered nowhere."""
    P = pair_groupoid(3)
    specs = [(a, P.src[a], P.rng[a], P.inv[a]) for a in P.arrows]
    entries = [(a, b, ab) for (a, b), ab in P.compose_table.items()]
    a, b, _ = entries[4]
    entries.insert(4, (a, b, dropped))
    entries.append((a, b, last))
    unit_arrows = None if infer else P.unit_arrow
    G = build_groupoid(P.units, specs, entries, unit_arrows)
    H = ref_build_groupoid(P.units, specs, entries, unit_arrows)
    _assert_same_groupoid(G, H)
    assert G.compose_table[(a, b)] == last
    assert list(G.compose_table).index((a, b)) == 4
    assert "qq" not in G.arrays.code


def test_views_hold_no_parsed_tree_and_no_cycle():
    """The compiled twist keeps none of the file's lists alive, and with
    its views built it is freed by reference counting alone."""

    class Entry(list):
        pass

    data = _file(random_coboundary(pair_groupoid(3),
                                   np.random.default_rng(3)))
    data["groupoid"]["compose"] = [Entry(e)
                                   for e in data["groupoid"]["compose"]]
    data["cocycle"] = [Entry(e) for e in data["cocycle"]]
    refs = [weakref.ref(e) for e in data["groupoid"]["compose"]
            + data["cocycle"]]
    was = gc.isenabled()
    gc.disable()
    try:
        T = twist_from_json(data)
        del data
        assert all(r() is None for r in refs)
        t = T.groupoid.arrays
        assert len(list(T.sigma)) == len(list(T.groupoid.compose_table)) \
            == len(list(t.pairs)) == 27
        gone = [weakref.ref(x) for x in (T, T.groupoid, t)]
        del T, t
        assert all(r() is None for r in gone)
    finally:
        (gc.enable if was else gc.disable)()


def _refuse_build(self):
    raise AssertionError("a pair table was built")


@pytest.mark.parametrize("kind", ["twist", "groupoid", "corrupted"])
def test_validate_builds_no_pair_table(tmp_path, capsys, monkeypatch, kind):
    """``validate`` reads the arrays alone: neither the command nor
    ``validate_twist`` of a compiled file builds the compose table, sigma
    or the pairs."""
    T = random_coboundary(pair_groupoid(6), np.random.default_rng(4))
    data = _file(T)
    if kind == "groupoid":
        data = data["groupoid"]
    elif kind == "corrupted":
        data["cocycle"][7][1] = [0.0, 1.0]
    path = _write(tmp_path, "t.json", data)
    monkeypatch.setattr(_PairTable, "_table", property(_refuse_build))
    assert cli.main(["validate", path]) == (kind == "corrupted")
    S = twist_from_json(data)
    assert bool(validate_twist(S)) is (kind == "corrupted")
    views = (S.groupoid.compose_table, S.sigma, S.groupoid.arrays.pairs)
    assert all(len(v) == 216 for v in views)
    with pytest.raises(AssertionError, match="pair table"):
        list(S.sigma)


# --- the one triple pass ------------------------------------------------------------

@pytest.mark.parametrize("chunk", [1, 7, 64, 1 << 13])
@pytest.mark.parametrize("label,T", ALL, ids=ids)
def test_one_pass_equals_both_validators(label, T, chunk, monkeypatch):
    monkeypatch.setattr(cartankit.groupoid, "_CHUNK", chunk)
    G = T.groupoid
    assert validate_twist(T) == validate(G) + validate_cocycle(T)
    if label in LOOP_READABLE:
        assert validate(G) == ref_validate(G)
    if not validate(G):  # the loop reference needs whole tables
        assert validate_cocycle(T) == ref_validate_cocycle(T)


@pytest.mark.parametrize("chunk", [1, 7, 1 << 13])
def test_missing_bc_reads_no_pair(chunk, monkeypatch):
    """With (b, c) missing, (a, bc) is no pair even where a composes with
    the last arrow (the flat read of pair_at at column -1)."""
    monkeypatch.setattr(cartankit.groupoid, "_CHUNK", chunk)
    P = pair_groupoid(3)
    table = {k: v for k, v in P.compose_table.items()
             if k != ("u2<-u1", "u1<-u0")}
    t = dataclasses.replace(P, compose_table=table).arrays
    assert t.names[len(P.arrows) - 1] == "u2<-u2"
    p = np.arange(len(t.pairs))
    got = [np.concatenate(x) for x in zip(*t.triples(p))]
    want = [np.concatenate(x) for x in zip(*ref_triples(t, p))]
    for g, w in zip(got, want):
        assert np.array_equal(g, w)
    missing = got[2] < 0
    assert missing.any() and (got[4][missing] == -1).all()


def test_corrupted_pair12_reports_its_triples():
    T = _corrupted_pair(12, 3)
    lines = validate_twist(T)
    assert lines and all(v.startswith("cocycle identity fails at ")
                         for v in lines)
    assert lines == ref_validate_cocycle(T)


def test_associativity_failures_sorted_by_pair_then_c(monkeypatch):
    """Failures from several chunks, reported in (a, b, c) order."""
    monkeypatch.setattr(cartankit.groupoid, "_CHUNK", 3)
    C = cyclic_groupoid(5)
    table = {**C.compose_table, ("c1", "c1"): "c3", ("c4", "c2"): "c0"}
    # table order puts (c4, c2) after (c1, c1); a reversed table too
    for items in (list(table.items()), list(table.items())[::-1]):
        G = dataclasses.replace(C, compose_table=dict(items))
        got = validate_twist(trivial_twist(G))
        assert got == validate(G) == ref_validate(G)
        assoc = [v for v in got if v.startswith("associativity")]
        assert len(assoc) > 2 and assoc == sorted(
            assoc, key=lambda v: tuple(v[v.index("("):].split(",")))


@pytest.mark.parametrize("label,T", ALL, ids=ids)
def test_associativity_on_listed_pairs(label, T):
    G = T.groupoid
    got = [v for v in validate_twist(T) if v.startswith("associativity")]
    assert got == ref_associativity(G)


def test_keying_violation_skips_the_cocycle(monkeypatch):
    T = dict(_corrupted_twists())["keys"]
    assert validate_twist(T) == [
        "sigma is not keyed exactly by the composable pairs"]


def test_keying_violation_with_as_many_keys():
    """A sigma with one pair swapped for a non-composable one has as many
    keys as the table has pairs, and is still not keyed by them."""
    T = trivial_twist(pair_groupoid(3))
    sigma = dict(T.sigma)
    del sigma[("u0<-u1", "u1<-u2")]
    sigma[("u0<-u1", "u0<-u1")] = 1.0
    T = CocycleTwist(T.groupoid, sigma)
    assert len(T.sigma) == len(T.groupoid.compose_table)
    assert validate_twist(T) == ref_validate_cocycle(T) == [
        "sigma is not keyed exactly by the composable pairs"]


def test_keying_violation_with_an_extra_key():
    """A sigma on every pair and one more is not keyed by the pairs."""
    T = trivial_twist(pair_groupoid(3))
    T = CocycleTwist(T.groupoid, {**T.sigma, ("u0<-u1", "u0<-u1"): 1.0})
    assert validate_twist(T) == ref_validate_cocycle(T) == [
        "sigma is not keyed exactly by the composable pairs"]


def test_keying_of_another_groupoids_view():
    """Only a view over the groupoid's own pairs skips the keying scan: a
    view from another groupoid is scanned like any mapping, and passes
    when its keys are the pairs."""
    P = random_coboundary(pair_groupoid(3), np.random.default_rng(6))
    C = trivial_twist(cyclic_groupoid(27))
    assert len(P.sigma) == 27 < len(C.sigma)
    T = CocycleTwist(C.groupoid, P.sigma)
    assert validate_twist(T) == [
        "sigma is not keyed exactly by the composable pairs"]
    T = CocycleTwist(pair_groupoid(3), P.sigma)
    assert T.groupoid.arrays.a is not P.groupoid.arrays.a
    assert validate_twist(T) == [] and T.sigma_vector.tolist() == list(
        P.sigma.values())


def test_both_validators_use_the_one_pass(monkeypatch):
    calls = []
    real = cartankit.groupoid._triple_checks

    def counted(t, *args, **kwargs):
        calls.append(len(args))
        return real(t, *args, **kwargs)

    monkeypatch.setattr(cartankit.groupoid, "_triple_checks", counted)
    monkeypatch.setattr(cartankit.twist, "_triple_checks", counted)
    T = trivial_twist(pair_groupoid(3))
    validate(T.groupoid)
    validate_cocycle(T)
    validate_twist(T)
    # validate passes no phases; the other two pass phases and tol
    assert calls == [0, 2, 2]


@pytest.fixture
def triples_calls(monkeypatch):
    """(pairs, third factors) of each ``triples`` call."""
    calls = []
    real = GroupoidArrays.triples

    def counted(self, p, third=None):
        calls.append((len(p), len(self.index if third is None else third)))
        return real(self, p, third)

    monkeypatch.setattr(GroupoidArrays, "triples", counted)
    return calls


def _write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


@pytest.mark.parametrize("cmd", ["validate", "cstar"])
def test_one_triples_call_per_command(tmp_path, capsys, triples_calls, cmd):
    """Every pair once, with every arrow as c: pair(4) is small enough
    for the full pass alone."""
    T = random_coboundary(pair_groupoid(4), np.random.default_rng(0))
    path = _write(tmp_path, "t.json", twist_to_json(T))
    assert cli.main([cmd, path]) == 0
    assert triples_calls == [(len(T.sigma), 16)]


@pytest.mark.parametrize("cmd", ["validate", "cstar"])
def test_one_generator_triples_call_per_command(tmp_path, capsys,
                                                triples_calls, cmd):
    """Every pair once, with the 38 arrows of pair(20)'s generating set
    as c."""
    T = random_coboundary(pair_groupoid(20), np.random.default_rng(0))
    path = _write(tmp_path, "t.json", twist_to_json(T))
    assert cli.main([cmd, path]) == 0
    assert triples_calls == [(len(T.sigma), 38)]


def test_one_triples_call_per_compared_twist(tmp_path, capsys,
                                             triples_calls, monkeypatch):
    a = _write(tmp_path, "a.json", twist_to_json(trivial_twist(
        pair_groupoid(2))))
    b = _write(tmp_path, "b.json", groupoid_to_json(pair_groupoid(3)))
    assert cli.main(["compare", a, b]) == 1
    assert triples_calls == [(8, 4), (27, 9)]
    # the generating sets of pair(2) and pair(3) in place of every arrow
    monkeypatch.setattr(cartankit.groupoid, "_FULL_PASS_MAX", -1)
    triples_calls.clear()
    assert cli.main(["compare", a, b]) == 1
    assert triples_calls == [(8, 2), (27, 4)]


def test_cocycle_tolerance_threshold():
    """The identity is decided by |d| > tol, as before."""
    C = cyclic_groupoid(3)
    for defect, bad in ((0.5 * COCYCLE_TOL, False), (2 * COCYCLE_TOL, True)):
        sigma = dict(trivial_twist(C).sigma)
        sigma[("c1", "c1")] = np.exp(1j * defect)
        T = CocycleTwist(C, sigma)
        assert bool(validate_twist(T)) is bad
        assert validate_twist(T) == ref_validate_cocycle(T)

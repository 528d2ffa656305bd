"""JSON schemas for groupoids, twists, inclusions, and matrices.

Matrices serialize as row-major arrays of [re, im] pairs.  Cocycles
serialize as sparse [pair, [re, im]] entries; pairs within COCYCLE_TOL
of 1 are omitted and read back as 1.  All loaders raise ParseError with
line/column information for malformed JSON.
"""

from __future__ import annotations

import functools
import gc
import json

import numpy as np

from .errors import ParseError
from .groupoid import FiniteGroupoid, _lookup, build_groupoid
from .inclusion import Inclusion, make_inclusion
from .matalg import COCYCLE_TOL, generate_star_algebra
from .twist import CocycleTwist, _with_phases, trivial_twist


def matrix_to_json(m) -> list:
    m = np.asarray(m, dtype=complex)
    return [[[float(z.real), float(z.imag)] for z in row] for row in m]


def matrix_from_json(data) -> np.ndarray:
    try:
        return np.array([[complex(e[0], e[1]) for e in row] for row in data])
    except (TypeError, IndexError, ValueError) as exc:
        raise ParseError(f"malformed matrix entry: {exc}") from exc


def groupoid_to_json(G: FiniteGroupoid) -> dict:
    return {
        "units": list(G.units),
        "arrows": [{"id": a, "src": G.src[a], "rng": G.rng[a],
                    "inv": G.inv[a]} for a in G.arrows],
        "compose": [[a, b, ab] for (a, b), ab in
                    sorted(G.compose_table.items())],
        "unit_arrows": {u: e for u, e in sorted(G.unit_arrow.items())},
    }


def _collector_paused(load):
    """``load`` with the cycle collector paused: a parsed file holds no
    cycles to find.  The wrapper makes no object of its own before the
    pause starts (a context manager makes two): the first one made after
    a decode would start a collection over the decoded tree."""
    collector = gc  # the package's one binding of gc, read at each call

    @functools.wraps(load)
    def paused(*args, **kwargs):
        was = collector.isenabled()
        collector.disable()
        try:
            return load(*args, **kwargs)
        finally:
            (collector.enable if was else collector.disable)()
    return paused


@_collector_paused
def groupoid_from_json(data) -> FiniteGroupoid:
    """Compile a groupoid file, refusing a repeated unit id, arrow id or
    compose pair (a table keeps one entry per key) and a compose entry of
    other than three items."""
    try:
        specs = [(a["id"], a["src"], a["rng"], a["inv"])
                 for a in data["arrows"]]
        pairs = data.get("compose", [])
        G = build_groupoid(data["units"], specs, pairs,
                           data.get("unit_arrows"))
        if len(G.src) != len(specs):
            raise ParseError(
                f"repeated arrow id {_repeated(s[0] for s in specs)!r}")
        if len(set(G.units)) != len(G.units):
            raise ParseError(f"repeated unit id {_repeated(data['units'])!r}")
        if len(G.arrays.pairs) != len(pairs):  # one entry per pair
            a, b = _repeated(tuple(e[:2]) for e in pairs)
            raise ParseError(f"repeated compose entry for pair "
                             f"({a!r}, {b!r})")
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed groupoid object: {exc}") from exc
    return G


def _repeated(keys):
    """The first key that occurs a second time."""
    seen = set()
    for k in keys:
        if k in seen:
            return k
        seen.add(k)


def twist_to_json(T: CocycleTwist) -> dict:
    cocycle = []
    for (a, b), v in sorted(T.sigma.items()):
        if abs(v - 1.0) > COCYCLE_TOL:
            cocycle.append([[a, b], [float(v.real), float(v.imag)]])
    return {"groupoid": groupoid_to_json(T.groupoid), "cocycle": cocycle}


@_collector_paused
def twist_from_json(data) -> CocycleTwist:
    """Compile a twist file: sigma is 1 except at the cocycle entries,
    which are placed by ``pair_at`` into one phase vector over the pairs.
    An entry on a non-composable pair, or a repeated pair, is refused.
    Entries are refused in file order, each on its pair before its
    value, as a loop over the entries would refuse them (but a name that
    cannot key a table, such as a list, is refused first)."""
    G = groupoid_from_json(data["groupoid"] if "groupoid" in data else data)
    t = G.arrays
    a, b, re, im = [], [], [], []
    try:
        try:
            for (x, y), (u, v) in data.get("cocycle", []):
                a.append(x)
                b.append(y)
                re.append(u)
                im.append(v)
            unread = None
        except (TypeError, ValueError) as exc:
            unread = exc  # entry len(a) is not [[a, b], [re, im]]
        # pair_at reads -1 for a name outside the tables
        pos = t.pair_at[_lookup(a, t.code, len(a)),
                        _lookup(b, t.code, len(b))]
        bad = pos < 0
        if not set(map(type, re)) | set(map(type, im)) <= _NUMBER:
            bad |= ~(_is_number(re) & _is_number(im))  # find the first
        if bad.any():
            k = np.flatnonzero(bad)[0]
            if pos[k] < 0:
                raise ParseError(f"cocycle entry on non-composable pair "
                                 f"({a[k]!r}, {b[k]!r})")
            complex(re[k], im[k])  # raises: a part is not a JSON number
        if unread is not None:
            raise unread
        phases = np.ones(len(t.a), dtype=complex)
        phases.real[pos] = np.asarray(re, dtype=float)
        phases.imag[pos] = np.asarray(im, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"malformed cocycle entry: {exc}") from exc
    if (np.bincount(pos, minlength=len(t.a)) > 1).any():
        a, b = _repeated(zip(a, b))
        raise ParseError(f"repeated cocycle entry for pair ({a!r}, {b!r})")
    return _with_phases(G, phases)


#: The types of a JSON number; complex() takes two of them.
_NUMBER = frozenset((int, float, bool))


def _is_number(parts: list) -> np.ndarray:
    """Whether each part is a JSON number."""
    return np.fromiter(map(_NUMBER.__contains__, map(type, parts)), bool,
                       len(parts))


def inclusion_to_json(inc: Inclusion) -> dict:
    return {
        "ambient_dim": inc.C.ambient_dim,
        "C_generators": [matrix_to_json(b) for b in inc.C.basis],
        "D_generators": [matrix_to_json(b) for b in inc.D.basis],
        "normalizers": [matrix_to_json(v) for v in inc.normalizer_gens],
    }


def inclusion_from_json(data, cap: int = None) -> Inclusion:
    try:
        n = int(data["ambient_dim"])
        cgens = [matrix_from_json(m) for m in data["C_generators"]]
        dgens = [matrix_from_json(m) for m in data["D_generators"]]
        norms = [matrix_from_json(m) for m in data.get("normalizers", [])]
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed inclusion object: {exc}") from exc
    kwargs = {} if cap is None else {"cap": cap}
    C = generate_star_algebra(n, cgens, **kwargs)
    D = generate_star_algebra(n, dgens, **kwargs)
    return make_inclusion(C, D, norms)


@_collector_paused
def load_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(exc.msg, line=exc.lineno, column=exc.colno) from exc


#: The kinds of file that compile to a twist.
TWIST_KINDS = ("groupoid", "twist")


@_collector_paused
def load_file(path, kinds=TWIST_KINDS + ("inclusion",)) -> tuple:
    """(kind, content) of the file at path, refusing a kind outside
    ``kinds``.  The file is decoded, classified and, for a groupoid or
    twist, compiled to a twist (a groupoid as its trivial twist) under one
    collector pause, and its parsed tree is dropped before the pause ends.
    An inclusion comes back parsed: building its algebras
    (``inclusion_from_json``) is computation, not loading."""
    data = load_json(path)
    kind = classify(data)
    if kind not in kinds:
        names = " or ".join(sorted(kinds))
        article = "an" if names[0] in "aeiou" else "a"
        raise ParseError(f"expected {article} {names} file, found {kind}")
    if kind == "inclusion":
        return kind, data
    if kind == "twist":
        return kind, twist_from_json(data)
    return kind, trivial_twist(groupoid_from_json(data))


def classify(data) -> str:
    """Which schema a parsed JSON object follows."""
    if not isinstance(data, dict):
        raise ParseError("top-level JSON value must be an object")
    if "ambient_dim" in data:
        return "inclusion"
    if "groupoid" in data or "cocycle" in data:
        return "twist"
    if "units" in data:
        return "groupoid"
    raise ParseError("unrecognized schema: expected a groupoid, twist, or "
                     "inclusion object")

"""Finite groupoids: validation, isotropy, bisections, subgroupoids.

Arrows and units are string identifiers, and composition is a table keyed
by arrow pairs; both are what files hold.  Each groupoid compiles once to
integer arrays (``FiniteGroupoid.arrays``), on which validation and the
twist algebra compute.  Every finite groupoid is automatically etale and
Hausdorff, so no topology is carried.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, repeat

import numpy as np

from .errors import (
    IsomorphismUndecided,
    NotASubgroupoid,
    UnknownArrow,
    UnknownUnit,
)

#: Triples (a, b, c) held in memory at once by the identity checks.
_CHUNK = 1 << 13
#: Tables with at most this many triples go straight to the full pass:
#: its one chunk costs less than finding a generating set.
_FULL_PASS_MAX = 1 << 13


@dataclass(frozen=True)
class FiniteGroupoid:
    """A finite groupoid given by explicit tables.

    Composition convention: compose(a, b) is defined exactly when
    source(a) = range(b), i.e. the product "a after b".
    """

    units: tuple
    arrows: tuple
    src: dict
    rng: dict
    inv: dict
    compose_table: Mapping  # (a, b) -> ab
    unit_arrow: dict     # unit -> its identity arrow

    def compose(self, a, b):
        return self.compose_table.get((a, b))

    def is_unit_arrow(self, a) -> bool:
        return a in self.unit_arrow.values()

    @cached_property
    def arrays(self) -> "GroupoidArrays":
        return GroupoidArrays(self)

    @cached_property
    def axiom_violations(self) -> list:
        """The violations of every axiom but associativity
        (``_axiom_lines``), found once."""
        return _axiom_lines(self)

    def arrows_with_source(self, x):
        return self._arrows_at(x, self.arrays.src)

    def arrows_with_range(self, x):
        return self._arrows_at(x, self.arrays.rng)

    def _arrows_at(self, x, *ends):
        """The arrows whose given ends (unit-number arrays) are all x."""
        if x not in self.unit_arrow:
            raise UnknownUnit(f"unknown unit {x!r}")
        u = self.arrays.unit_index[x]
        hit = np.logical_and.reduce([e == u for e in ends])
        return tuple(self.arrays.names[np.flatnonzero(hit)])

    def orbit_representatives(self):
        """One unit per r-orbit: the smallest identifier in each orbit (the
        orbit of x is the set of ranges of the arrows with source x)."""
        t, n = self.arrays, len(self.arrows)
        low = np.arange(len(t.unit_index))
        np.minimum.at(low, t.src[:n], t.rng[:n])
        return tuple(x for k, x in enumerate(self.units) if low[k] == k)


class GroupoidArrays:
    """A groupoid's tables as integer arrays.

    Arrow k is ``names[k]``: the listed arrows in order, then any name the
    tables use without listing it (only invalid tables have such names);
    ``code`` maps each name to its number.  Units are numbered alike in
    ``unit_index``.  ``src``/``rng`` (unit numbers), ``inv`` and the
    ``unit``-arrow mask are indexed by arrow number, with ends and inverse
    -1 for an unlisted arrow.  Pair p composes ``a[p]`` after ``b[p]``
    into ``ab[p]``, in the order of the entries [a, b, ab] of ``compose``
    (``G.compose_table``'s by default) kept as a dict keeps them, viewed
    as one in ``table`` (keys ``pairs``); a cocycle is a vector over p.
    ``pair_at[x, y]`` is the pair (x, y), -1 if there is none or x or y
    is -1.
    """

    def __init__(self, G: FiniteGroupoid, compose=None):
        if compose is None:
            compose = [(a, b, ab) for (a, b), ab in G.compose_table.items()]
        # (a repeated arrow id, which files refuse after this, counts once)
        self.index = {a: k for k, a in enumerate(dict.fromkeys(G.arrows))}
        self.unit_index = units = {x: k for k, x in enumerate(
            dict.fromkeys(G.units + tuple(G.unit_arrow)))}
        self.code = codes = dict(self.index)
        arrows, n = list(self.index), len(self.index)
        # Names are numbered in this order, so an unlisted name gets the
        # same number whichever lookups miss: each arrow's ends and
        # inverse, each pair's a, b and ab, the unit arrows.
        ends = _numbers([x for a in arrows for x in (G.src.get(a),
                                                     G.rng.get(a))], units, 2)
        inv = _numbers(list(map(G.inv.get, arrows)), codes, 1)[:, 0]
        for _, _, _ in compose:  # an entry of other than three items raises
            pass
        self.a, self.b, self.ab = _numbers(list(chain.from_iterable(compose)),
                                           codes, 3).T
        self.unit_arrow = np.array(
            [codes.setdefault(G.unit_arrow[x], len(codes))
             if x in G.unit_arrow else -1 for x in units], dtype=np.intp)
        m = len(codes)
        self.pair_at = np.full((m + 1, m + 1), -1, dtype=np.int32)
        p = np.arange(len(self.a))
        self.pair_at[self.a, self.b] = p
        if (self.pair_at[self.a, self.b] != p).any():  # a repeated pair
            table = {(a, b): ab for a, b, ab in compose}
            self.__init__(G, [(a, b, ab) for (a, b), ab in table.items()])
            return
        self.src, self.rng, self.inv = np.full((3, m), -1, dtype=np.intp)
        self.src[:n], self.rng[:n], self.inv[:n] = ends[:, 0], ends[:, 1], inv
        self.unit = np.zeros(m, dtype=bool)
        self.unit[self.unit_arrow[self.unit_arrow >= 0]] = True
        self.names = np.array(list(codes) + [None], dtype=object)
        self.table = _PairTable(self)
        self.pairs = self.table.keys()
        self.inv_pair = self.pair_at[np.arange(n), self.inv[:n]]
        self._ab = np.append(self.ab, -1)

    def compose(self, x, y) -> np.ndarray:
        """Arrow number of each x y, -1 where not composable."""
        return self._ab[self.pair_at[x, y]]

    @cached_property
    def product_runs(self) -> tuple:
        """(q, a[q], b[q], starts, hit): the positions q of the pairs with
        a listed product, ordered stably by product, so that the pairs of
        each arrow form a run of q; starts are the runs' first indices,
        for the arrows that have one (the mask hit)."""
        n = len(self.index)
        q = np.argsort(self.ab, kind="stable")
        q = q[self.ab[q] < n]
        cnt = np.bincount(self.ab[q], minlength=n)
        hit = cnt > 0
        return q, self.a[q], self.b[q], (np.cumsum(cnt) - cnt)[hit], hit

    def triples(self, p, third=None):
        """Chunks of the triples (a, b, c): each pair position q of p with
        every arrow c of ``third`` (listed arrows, ascending; all of them
        by default) with r(c) = s(b), c ascending.  Yields q, c and the
        pair positions of (b, c), (ab, c) and (a, bc), -1 if none.

        Chunks end at the first pair that brings the triple count past a
        multiple of _CHUNK."""
        if third is None:
            third = np.arange(len(self.index))
        by_range, cnt, start = self._by_range(third)
        s_b = self.src[self.b[p]]
        end = np.cumsum(cnt[s_b])  # pair i's triples are first[i]:end[i]
        first = end - cnt[s_b]
        total = end[-1] if len(end) else 0
        cuts = np.searchsorted(end, np.arange(_CHUNK, total, _CHUNK),
                               side="right")
        # pair_at read flat; its last column is -1, so the flat position
        # x w - 1 of (x, -1) reads -1 as pair_at[x, -1] does
        w, flat = len(self.pair_at), self.pair_at.ravel()
        # per pair, for its triples: q, by_range offset, rows of b, ab, a
        per_pair = (p, start[s_b] - first, self.b[p] * w, self.ab[p] * w,
                    self.a[p] * w)
        for lo, hi in zip(np.r_[0, cuts], np.r_[cuts, len(p)]):
            reps = cnt[s_b[lo:hi]]
            if not reps.any():
                continue
            q, at, bw, abw, aw = (np.repeat(x[lo:hi], reps) for x in per_pair)
            c = by_range[at + np.arange(first[lo], end[hi - 1])]
            b_c = flat[bw + c]
            yield q, c, b_c, flat[abw + c], flat[aw + self._ab[b_c]]

    def _by_range(self, c) -> tuple:
        """The listed arrows c grouped by range: c sorted stably by range,
        whose group u is ``[start[u]:][:cnt[u]]``.  cnt ends in an empty
        group, read by the end -1 of unlisted arrows."""
        r = self.rng[c]
        cnt = np.bincount(r, minlength=len(self.unit_index) + 1)
        return c[np.argsort(r, kind="stable")], cnt, np.cumsum(cnt) - cnt

    def _right_factors(self, x, grouped) -> tuple:
        """(x', c): each arrow of x with each arrow c of a ``_by_range``
        group with r(c) = s(x), so that x' c is defined."""
        by_range, cnt, start = grouped
        s_x = self.src[x]
        reps = cnt[s_x]
        end = np.cumsum(reps)
        at = np.repeat(start[s_x] - end + reps, reps)
        return np.repeat(x, reps), by_range[at + np.arange(len(at))]

    @cached_property
    def generators(self) -> tuple:
        """(S, L) on tables that pass every axiom but associativity: every
        listed arrow is a left-nested word (..(s_1 s_2)..) s_k of k <= L
        arrows of S (ascending), and some arrow needs L.

        S starts from a star, for each unit x off its orbit's smallest unit
        r one arrow r -> x and its inverse; then, while the closure misses
        an arrow, the first missing arrow is added (in every orbit at once:
        products never leave an orbit, so this adds what adding them one
        at a time would).  The closure is a breadth-first search over right
        products w s, read from ``pair_at``, so an arrow first reached at
        level k has a shortest word of k arrows.  When an orbit gains an
        arrow of S, its search restarts; the other orbits are complete."""
        n = len(self.index)
        src, rng = self.src[:n], self.rng[:n]
        orbit = np.arange(len(self.unit_index))
        np.minimum.at(orbit, src, rng)
        orbit = orbit[rng]  # each arrow's orbit, by its smallest unit
        star = np.flatnonzero((src == orbit) & (rng != src))
        star = star[np.unique(rng[star], return_index=True)[1]]
        in_S = np.zeros(n, dtype=bool)
        in_S[star] = in_S[self.inv[star]] = True
        depth = np.zeros(n, dtype=np.intp)  # 0: not reached
        restart = np.ones(n, dtype=bool)
        while True:
            S = np.flatnonzero(in_S)
            grouped = self._by_range(S)
            depth[restart] = 0
            x, k = S[restart[S]], 1
            while len(x):
                depth[x] = k
                xc = self._ab[self.pair_at[self._right_factors(x, grouped)]]
                # (np.unique without return_index imports numpy.ma, 15 ms)
                x = np.unique(xc[depth[xc] == 0], return_index=True)[0]
                k += 1
            missing = np.flatnonzero(depth == 0)
            if not len(missing):
                return S, int(depth.max(initial=0))
            new = missing[np.unique(orbit[missing], return_index=True)[1]]
            in_S[new] = True
            restart = np.isin(orbit, orbit[new])


def _lookup(names, codes: dict, count: int) -> np.ndarray:
    """codes[x] for each of the count names, -1 where codes lacks it."""
    return np.fromiter(map(codes.get, names, repeat(-1)), np.intp, count)


def _numbers(names: list, codes: dict, width: int) -> np.ndarray:
    """codes[x] for each of the names, as rows of ``width`` in row-major
    order; a name codes lacks is numbered next, in order of first
    appearance."""
    out = _lookup(names, codes, len(names))
    for k in np.flatnonzero(out < 0):
        out[k] = codes.setdefault(names[k], len(codes))
    return out.reshape(-1, width)


class _PairTable(Mapping):
    """The read-only {(a, b): value} over the pairs of arrays t: pair p is
    keyed by the names of ``t.a[p]`` and ``t.b[p]``, and its value is
    values[p], or the name of ``t.ab[p]`` when values is None.  The dict
    is built on first keyed use.  The view holds t's arrays, not t, so
    that t can keep one with no cycle."""

    def __init__(self, t: GroupoidArrays, values=None):
        self._arrays, self._values = (t.names, t.a, t.b, t.ab), values

    @cached_property
    def _table(self) -> dict:
        names, a, b, ab = self._arrays
        values = names[ab] if self._values is None else self._values
        return dict(zip(zip(names[a].tolist(), names[b].tolist()),
                        values.tolist()))

    def __getitem__(self, key):
        return self._table[key]

    def __iter__(self):
        return iter(self._table)

    def __len__(self) -> int:
        return len(self._arrays[1])


def _is_view(table, t: GroupoidArrays) -> bool:
    """Whether table is a ``_PairTable`` keyed by the pairs of t."""
    return isinstance(table, _PairTable) and table._arrays[1] is t.a


def _violations(found, fields) -> list:
    """Violation lines, ordered by position and then by check.

    found: (template, positions) per check; fields(positions) gives the
    values that fill the templates at those positions.
    """
    pos = np.concatenate([p for _, p in found])
    kind = np.repeat(np.arange(len(found)), [len(p) for _, p in found])
    order = np.argsort(pos * len(found) + kind)
    values = fields(pos[order])
    return [found[k][0].format(**{f: v[i] for f, v in values.items()})
            for i, k in enumerate(kind[order])]


def build_groupoid(units, arrow_specs, compose_pairs=None,
                   unit_arrows=None) -> FiniteGroupoid:
    """Assemble a FiniteGroupoid from raw tables.

    arrow_specs: iterable of (id, src, rng, inv).  compose_pairs, the
    entries [a, b, ab], are numbered straight into the arrays
    (``GroupoidArrays``), and ``compose_table`` is their read-only view;
    unit arrows are inferred as the arrows e with src == rng and e e = e,
    or given explicitly.
    """
    units = tuple(sorted(units))
    arrows = tuple(sorted(s[0] for s in arrow_specs))
    src = {a: s for a, s, _, _ in arrow_specs}
    rng = {a: r for a, _, r, _ in arrow_specs}
    inv = {a: i for a, _, _, i in arrow_specs}
    compose_pairs = compose_pairs or ()
    if unit_arrows is None:
        # infer: the unit arrow of x is the arrow e at x with e*e = e
        square = {a: ab for a, b, ab in compose_pairs if a == b}
        unit_arrows = {src[a]: a for a in arrows
                       if src[a] == rng[a] and square.get(a) == a}
    G = FiniteGroupoid(units=units, arrows=arrows, src=src, rng=rng,
                       inv=inv, compose_table=None,
                       unit_arrow=dict(unit_arrows))
    t = G.__dict__["arrays"] = GroupoidArrays(G, compose_pairs)
    object.__setattr__(G, "compose_table", t.table)
    return G


def validate(G: FiniteGroupoid) -> list:
    """Check all groupoid axioms; returns a list of violation strings."""
    bad = G.axiom_violations
    return bad + _triple_checks(G.arrays, tables_hold=not bad)[0]


def _axiom_lines(G: FiniteGroupoid) -> list:
    """The violations of every groupoid axiom but associativity."""
    bad = []
    for x in G.units:
        e = G.unit_arrow.get(x)
        if e is None:
            bad.append(f"unit {x!r} has no unit arrow")
            continue
        if G.src.get(e) != x or G.rng.get(e) != x:
            bad.append(f"unit arrow {e!r} of {x!r} has wrong source/range")
    t, n = G.arrays, len(G.arrows)
    g = np.arange(n)
    src, rng, inv = t.src[:n], t.rng[:n], t.inv[:n]
    er, es = t.unit_arrow[rng], t.unit_arrow[src]
    no_end = (er < 0) | (es < 0)
    no_inv = ~no_end & (inv >= n)
    ok = ~no_end & ~no_inv
    ia = np.where(ok, inv, g)
    bad += _violations([
        ("arrow {a!r} has unknown source or range", g[no_end]),
        ("arrow {a!r} has unknown inverse {ia!r}", g[no_inv]),
        ("inverse not involutive at arrow {a!r}", g[ok & (t.inv[ia] != g)]),
        ("inverse of {a!r} has wrong source/range",
         g[ok & ((t.src[ia] != rng) | (t.rng[ia] != src))]),
        ("r(g)g != g at arrow {a!r}", g[ok & (t.compose(er, g) != g)]),
        ("g s(g) != g at arrow {a!r}", g[ok & (t.compose(g, es) != g)]),
        ("g^-1 g != unit at arrow {a!r}", g[ok & (t.compose(ia, g) != es)]),
        ("g g^-1 != unit at arrow {a!r}", g[ok & (t.compose(g, ia) != er)]),
    ], lambda p: {"a": t.names[p], "ia": t.names[t.inv[p]]})

    # arrow pairs (a, b), at position a n + b
    listed = np.flatnonzero((t.a < n) & (t.b < n))
    a, b, ab = t.a[listed], t.b[listed], t.ab[listed]
    unknown = ab >= n
    bad += _violations([
        ("compose defined for non-composable pair ({a!r},{b!r})",
         (a * n + b)[src[a] != rng[b]]),
        ("compose missing for composable pair ({a!r},{b!r})",
         _missing_pairs(t, n)),
        ("compose({a!r},{b!r}) is unknown arrow {ab!r}", (a * n + b)[unknown]),
        ("compose({a!r},{b!r}) has wrong source/range", (a * n + b)[
            ~unknown & ((t.src[ab] != src[b]) | (t.rng[ab] != rng[a]))]),
    ], lambda p: {"a": t.names[p // n], "b": t.names[p % n],
                  "ab": t.names[t.compose(p // n, p % n)]})
    bad += _violations(
        [("compose entry ({a!r},{b!r}) names an unknown arrow",
          np.flatnonzero((t.a >= n) | (t.b >= n)))],
        lambda p: {"a": t.names[t.a[p]], "b": t.names[t.b[p]]})
    return bad


def _missing_pairs(t: GroupoidArrays, n: int) -> np.ndarray:
    """a n + b for the pairs of listed arrows with r(b) = s(a) missing from
    the table, read by range (``_by_range``): no |arrows|^2 mask."""
    g = np.arange(n)
    a, b = t._right_factors(g, t._by_range(g))
    return (a * n + b)[t.pair_at[a, b] < 0]


def _triple_checks(t: GroupoidArrays, s=None, tol=0.0,
                   tables_hold=False) -> tuple:
    """(associativity lines, cocycle lines) from one pass over the triples
    of every pair, in table order.

    Associativity is checked on the pairs of listed arrows, and its
    failures are sorted by (a, b) and then c.  Given phases s over the
    pairs, the cocycle identity s(a,b) s(ab,c) = s(b,c) s(a,bc) is checked
    to within tol, and a triple whose identity names a pair outside the
    table is reported as undefined, each chunk's lines in pass order.

    tables_hold says that the tables pass every other check (no
    ``_axiom_lines``, and no ``_sigma_lines`` when s is given).  Then the
    triples whose c lies in a generating set are checked first
    (``_generator_pass``), and when they prove that this pass would
    report nothing, it is not run; so it runs only to list violations,
    or when the generating set cannot decide."""
    if tables_hold and _generator_pass(t, s, tol):
        return [], []
    n = len(t.index)
    unlisted = (t.a >= n) | (t.b >= n)
    names = lambda q: {"a": t.names[t.a[q]], "b": t.names[t.b[q]]}
    if s is not None:
        s1 = np.append(s, np.nan)
    p = np.arange(len(t.a))
    fq, fc, cocycle = [], [], []
    for q, c, b_c, ab_c, a_bc in t.triples(p):
        fails = t._ab[ab_c] != t._ab[a_bc]
        if fails.any():
            fails &= (b_c >= 0) & ~unlisted[q]
            fq.append(q[fails])
            fc.append(c[fails])
        if s is None:
            continue
        # an undefined term reads NaN and fails no comparison
        fails = np.abs(s[q] * s1[ab_c] - s1[b_c] * s1[a_bc]) > tol
        undefined = (b_c | ab_c | a_bc) < 0
        if fails.any() or undefined.any():
            cocycle += _violations([
                ("cocycle identity fails at ({a!r},{b!r},{c!r})",
                 np.flatnonzero(fails)),
                ("cocycle identity undefined at ({a!r},{b!r},{c!r})",
                 np.flatnonzero(undefined)),
            ], lambda i: {**names(q[i]), "c": t.names[c[i]]})
    assoc = []
    if fq:
        q, c = np.concatenate(fq), np.concatenate(fc)
        order = np.lexsort((c, t.a[q] * n + t.b[q]))
        q, c = q[order], c[order]
        assoc = _violations([("associativity fails at ({a!r},{b!r},{c!r})",
                              np.arange(len(q)))],
                            lambda i: {**names(q[i]), "c": t.names[c[i]]})
    return assoc, cocycle


#: Unit roundoff of float64.
_U = 2.0 ** -53


def _generator_pass(t: GroupoidArrays, s, tol: float) -> bool:
    """Whether the triples (a, b, c) with c in S (``t.generators``) prove
    that the full triple pass reports no line, on tables that pass every
    other check.  Associativity is decided exactly; the cocycle identity
    with the cut e = tol / (4L).

    Light's test.  Let A be the arrows c with (ab)c = a(bc) for all
    composable a, b.  The other axioms make every product below defined,
    and for s, u in A with su defined,
    (ab)(su) = ((ab)s)u = (a(bs))u = a((bs)u) = a(b(su)).  So A is closed
    under products; if S lies in A, so does every left-nested word of S,
    and those give every arrow.

    The cocycle analogue.  Let D(a, b, c) = |s(a,b) s(ab,c) - s(b,c) s(a,bc)|
    and |s| <= 1 + tau.  With associativity, for c = wu,
      s(w,u) [s(a,b) s(ab,wu) - s(b,wu) s(a,bwu)]
    telescopes through s(a,b) s(ab,w) s(abw,u), s(b,w) s(a,bw) s(abw,u)
    and s(b,w) s(bw,u) s(a,bwu): each step is one of D(ab,w,u), D(a,b,w),
    D(a,bw,u), D(b,w,u) times a phase.  So
      D(a,b,wu) <= f [D(a,b,w) + D(ab,w,u) + D(a,bw,u) + D(b,w,u)],
    f = (1 + tau) / (1 - tau), and if every D(., ., u) <= d for u in S, a
    word of k arrows of S has D <= (3k - 2) d f^(k-1), by induction on k.

    Rounding.  A computed defect (two complex products, 2 sqrt(2) u each
    relative to |x||y|, a difference and a modulus) is within
    eta = 10 u (1 + tau)^2 of the exact one, u the unit roundoff; and the
    ``_sigma_lines`` modulus check gives tau = tol + 2u.  Generator
    defects computed <= e so bound every exact one by
    B = (3L - 2)(e + eta) f^(L-1), and every computed one by B + eta.
    When B + eta <= tol (at tol 1e-12, up to L = 77), no computed defect
    passes tol; otherwise the generating set cannot decide, and this
    returns False, as it does on tables of at most _FULL_PASS_MAX
    triples (counted as |pairs| |arrows| / |units|, which is exact when
    every unit is the range of equally many arrows)."""
    if len(t.a) * len(t.index) <= _FULL_PASS_MAX * len(t.unit_index):
        return False
    S, L = t.generators
    L = max(L, 1)
    eps = tol / (4 * L)
    if s is not None:
        tau = tol + 2 * _U
        growth = ((L - 1) * math.log1p(2 * tau / (1 - tau)) if tau < 1
                  else math.inf)
        eta = 10 * _U * (1 + tau) ** 2
        if not (growth <= 1 and (3 * L - 2) * (eps + eta) * math.exp(growth)
                + eta <= tol):
            return False
    # the other axioms make every pair of these triples defined
    p = np.arange(len(t.a))
    for q, c, b_c, ab_c, a_bc in t.triples(p, S):
        if (t._ab[ab_c] != t._ab[a_bc]).any() or s is not None and not (
                np.abs(s[q] * s[ab_c] - s[b_c] * s[a_bc]) <= eps).all():
            return False
    return True


def isotropy(G: FiniteGroupoid, x) -> tuple:
    """Arrows with source and range both equal to x."""
    return G._arrows_at(x, G.arrays.src, G.arrays.rng)


def is_bisection(G: FiniteGroupoid, S) -> bool:
    """True iff range and source are injective on the arrow set S."""
    S = list(S)
    for a in S:
        if a not in G.src:
            raise UnknownArrow(f"unknown arrow {a!r}")
    srcs = [G.src[a] for a in S]
    rngs = [G.rng[a] for a in S]
    return len(set(srcs)) == len(S) and len(set(rngs)) == len(S)


def is_subgroupoid(G: FiniteGroupoid, H) -> bool:
    """H is an arrow subset closed under inverse and composition, containing
    the unit arrows of its units."""
    H = set(H)
    if not H <= set(G.arrows):
        return False
    t = G.arrays
    inH = np.zeros(len(t.unit), dtype=bool)
    inH[[t.index[a] for a in H]] = True
    h = np.flatnonzero(inH)
    return bool(inH[t.inv[h]].all()
                and inH[t.unit_arrow[t.src[h]]].all()
                and inH[t.unit_arrow[t.rng[h]]].all()
                and inH[t.ab[inH[t.a] & inH[t.b]]].all())


def has_factorization_property(G: FiniteGroupoid, H) -> bool:
    """Every G-factorization of an H-arrow stays inside H."""
    H = set(H)
    if not is_subgroupoid(G, H):
        raise NotASubgroupoid("H is not a subgroupoid")
    t = G.arrays
    inH = np.zeros(len(t.unit), dtype=bool)
    inH[[t.index[a] for a in H]] = True
    return not np.any(inH[t.ab] & ~(inH[t.a] & inH[t.b]))


def restrict_groupoid(G: FiniteGroupoid, H) -> FiniteGroupoid:
    """The subgroupoid on the arrow subset H as a standalone groupoid."""
    H = set(H)
    if not is_subgroupoid(G, H):
        raise NotASubgroupoid("H is not a subgroupoid")
    units = sorted({G.src[a] for a in H} | {G.rng[a] for a in H})
    specs = [(a, G.src[a], G.rng[a], G.inv[a]) for a in sorted(H)]
    pairs = [(a, b, ab) for (a, b), ab in G.compose_table.items()
             if a in H and b in H]
    unit_arrows = {x: G.unit_arrow[x] for x in units}
    return build_groupoid(units, specs, pairs, unit_arrows)


# --- constructions -------------------------------------------------------

def pair_groupoid(n: int, prefix: str = "u") -> FiniteGroupoid:
    """The pair groupoid on n units; arrow i<-j for every pair (i, j)."""
    units = [f"{prefix}{i}" for i in range(n)]
    specs = []
    pairs = []
    aid = lambda i, j: f"{prefix}{i}<-{prefix}{j}"
    for i in range(n):
        for j in range(n):
            specs.append((aid(i, j), units[j], units[i], aid(j, i)))
    for i in range(n):
        for j in range(n):
            for k in range(n):
                pairs.append((aid(i, j), aid(j, k), aid(i, k)))
    unit_arrows = {units[i]: aid(i, i) for i in range(n)}
    return build_groupoid(units, specs, pairs, unit_arrows)


def group_groupoid(elements, mult, inverse, identity,
                   unit: str = "e0", prefix: str = "") -> FiniteGroupoid:
    """A finite group as a one-unit groupoid.

    mult: (g, h) -> gh; inverse: g -> g^-1 over the element labels.
    """
    name = lambda g: f"{prefix}{g}"
    specs = [(name(g), unit, unit, name(inverse(g))) for g in elements]
    pairs = [(name(g), name(h), name(mult(g, h)))
             for g in elements for h in elements]
    return build_groupoid([unit], specs, pairs, {unit: name(identity)})


def klein_four_groupoid(unit: str = "e0", prefix: str = "k") -> FiniteGroupoid:
    """Z/2 x Z/2 over one unit, elements k00, k01, k10, k11."""
    elems = [(0, 0), (0, 1), (1, 0), (1, 1)]
    label = lambda g: f"{g[0]}{g[1]}"
    return group_groupoid(
        [label(g) for g in elems],
        mult=lambda a, b: label(((int(a[0]) + int(b[0])) % 2,
                                 (int(a[1]) + int(b[1])) % 2)),
        inverse=lambda a: a,
        identity="00", unit=unit, prefix=prefix)


def cyclic_groupoid(n: int, unit: str = "e0", prefix: str = "c") -> FiniteGroupoid:
    """Z/n over one unit."""
    return group_groupoid(
        [str(i) for i in range(n)],
        mult=lambda a, b: str((int(a) + int(b)) % n),
        inverse=lambda a: str((-int(a)) % n),
        identity="0", unit=unit, prefix=prefix)


def disjoint_union(G1: FiniteGroupoid, G2: FiniteGroupoid,
                   p1: str = "A.", p2: str = "B.") -> FiniteGroupoid:
    """Disjoint union with identifier prefixes to avoid collisions."""
    def relabel(G, p):
        units = [p + u for u in G.units]
        specs = [(p + a, p + G.src[a], p + G.rng[a], p + G.inv[a])
                 for a in G.arrows]
        pairs = [(p + a, p + b, p + ab)
                 for (a, b), ab in G.compose_table.items()]
        uarr = {p + u: p + e for u, e in G.unit_arrow.items()}
        return units, specs, pairs, uarr

    u1, s1, c1, e1 = relabel(G1, p1)
    u2, s2, c2, e2 = relabel(G2, p2)
    return build_groupoid(u1 + u2, s1 + s2, c1 + c2, {**e1, **e2})


# --- isomorphism search --------------------------------------------------

def invariant_signature(G: FiniteGroupoid):
    """Cheap isomorphism invariants: arrow counts per orbit-normalized
    (source, target) profile and isotropy group orders."""
    iso_orders = sorted(len(isotropy(G, x)) for x in G.units)
    degree_profile = sorted(
        (len(G.arrows_with_source(x)), len(G.arrows_with_range(x)))
        for x in G.units)
    return (len(G.units), len(G.arrows), tuple(iso_orders),
            tuple(degree_profile))


#: The most arrows ``find_isomorphism`` searches exhaustively.
ISOMORPHISM_SEARCH_ARROWS = 12


def find_isomorphism(G1: FiniteGroupoid, G2: FiniteGroupoid):
    """Exhaustive isomorphism search for small groupoids.

    Returns an arrow bijection dict, or None when there is none.  Above
    ``ISOMORPHISM_SEARCH_ARROWS`` there is no search: a signature mismatch
    returns None, equal tables return the identity, and anything else
    raises IsomorphismUndecided.
    """
    if invariant_signature(G1) != invariant_signature(G2):
        return None
    if len(G1.arrows) > ISOMORPHISM_SEARCH_ARROWS:
        if G1 == G2:  # equal tables: the identity is an isomorphism
            return {a: a for a in G1.arrows}
        raise IsomorphismUndecided(
            f"{len(G1.arrows)} arrows is past the exhaustive search's "
            f"{ISOMORPHISM_SEARCH_ARROWS}, and the invariant signatures "
            "agree")

    def compat(u_map, a_map, a, b):
        if u_map.get(G1.src[a], G2.src[b]) != G2.src[b]:
            return False
        if u_map.get(G1.rng[a], G2.rng[b]) != G2.rng[b]:
            return False
        if G1.inv[a] in a_map and a_map[G1.inv[a]] != G2.inv[b]:
            return False
        return True

    arrows1 = sorted(G1.arrows)
    used = set()

    def extend(i, u_map, a_map):
        if i == len(arrows1):
            # verify full table
            for (a, b), ab in G1.compose_table.items():
                if G2.compose(a_map[a], a_map[b]) != a_map[ab]:
                    return None
            return dict(a_map)
        a = arrows1[i]
        for b in G2.arrows:
            if b in used or not compat(u_map, a_map, a, b):
                continue
            if G1.is_unit_arrow(a) != G2.is_unit_arrow(b):
                continue
            # partial composition consistency
            ok = True
            for a2, b2 in a_map.items():
                for x, y, x2, y2 in ((a, b, a2, b2), (a2, b2, a, b)):
                    ab1 = G1.compose(x, x2)
                    ab2 = G2.compose(y, y2)
                    if (ab1 is None) != (ab2 is None):
                        ok = False
                        break
                    if ab1 is not None and ab1 in a_map and a_map[ab1] != ab2:
                        ok = False
                        break
                if not ok:
                    break
            if not ok:
                continue
            used.add(b)
            u_new = dict(u_map)
            u_new[G1.src[a]] = G2.src[b]
            u_new[G1.rng[a]] = G2.rng[b]
            a_map[a] = b
            res = extend(i + 1, u_new, a_map)
            if res is not None:
                return res
            del a_map[a]
            used.discard(b)
        return None

    return extend(0, {}, {})

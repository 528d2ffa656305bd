"""``GroupoidArrays.triples``: the associativity and cocycle triples grouped
by range and chunked by triple count, against the per-pair enumeration it
replaced (kept here as the reference)."""

import numpy as np
import pytest

import cartankit.groupoid
import cartankit.twist
from cartankit.groupoid import pair_groupoid, validate
from cartankit.twist import trivial_twist, validate_cocycle
from test_table_arrays import TWISTS, _corrupted_groupoids, _corrupted_twists


def ref_triples(t, p, chunk=1 << 13):
    """The enumeration by pairs: chunk // n_arrows pairs at a time."""
    n = len(t.index)
    step = max(1, chunk // max(n, 1))
    for lo in range(0, len(p), step):
        i, c = np.nonzero(t.rng[:n] == t.src[t.b[p[lo:lo + step]]][:, None])
        q = p[lo + i]
        b_c = t.pair_at[t.b[q], c]
        yield (q, c, b_c, t.pair_at[t.ab[q], c],
               t.pair_at[t.a[q], t._ab[b_c]])


def _joined(chunks):
    chunks = list(chunks)
    return [np.concatenate([ch[k] for ch in chunks] or [np.zeros(0, int)])
            for k in range(5)], chunks


def _orders(G):
    """The pair orders the two validators enumerate: the listed pairs by
    (a, b), and every pair in table order."""
    t, n = G.arrays, len(G.arrows)
    listed = np.flatnonzero((t.a < n) & (t.b < n))
    return [listed[np.argsort(t.a[listed] * n + t.b[listed])],
            np.arange(len(t.pairs))]


GROUPOIDS = [T.groupoid for T in TWISTS] + \
    [G for _, G in _corrupted_groupoids()] + \
    [T.groupoid for _, T in _corrupted_twists()]


@pytest.mark.parametrize("G", GROUPOIDS, ids=lambda G: str(len(G.arrows)))
@pytest.mark.parametrize("chunk", [1, 7, 64, 1 << 13])
def test_same_triples_as_the_pair_enumeration(G, chunk, monkeypatch):
    monkeypatch.setattr(cartankit.groupoid, "_CHUNK", chunk)
    t = G.arrays
    for p in _orders(G):
        got, chunks = _joined(t.triples(p))
        want, _ = _joined(ref_triples(t, p))
        for g, w in zip(got, want):
            assert g.dtype.kind == w.dtype.kind == "i"
            assert np.array_equal(g, w)
        sizes = [len(ch[0]) for ch in chunks]
        assert all(sizes)
        # a chunk passes _CHUNK by less than the triples of one pair
        assert max(sizes, default=0) < chunk + len(G.arrows)


def test_chunks_counted_by_triples():
    t = pair_groupoid(20).arrays
    sizes = [len(ch[0]) for ch in t.triples(np.arange(len(t.pairs)))]
    assert sum(sizes) == 20 ** 4
    assert len(sizes) == -(-20 ** 4 // (1 << 13))


def test_no_violation_lines_built_on_valid_tables(monkeypatch):
    calls = []
    real = cartankit.groupoid._violations

    def counted(found, fields):
        calls.append(len(found))
        return real(found, fields)

    monkeypatch.setattr(cartankit.groupoid, "_violations", counted)
    monkeypatch.setattr(cartankit.twist, "_violations", counted)
    T = trivial_twist(pair_groupoid(12))
    assert validate(T.groupoid) == []
    assert validate_cocycle(T) == []
    # the per-arrow, per-pair and unknown-entry checks, and the sigma check
    assert calls == [8, 4, 1, 2]

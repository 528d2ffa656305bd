"""generate_star_algebra as a closure under generators: the span it
returns is the one the all-products loop (``ref_generate_rows``) converges
to, on block algebras, shifts and conjugated generic elements; closed seed
spans come back unchanged; no product is formed once the span is M_n; and
the dimension cap is checked on the seed span and before each round.

The all-products loop runs once per case: the span of the conjugated
generators u g u* is u A u*.  Each closed algebra is checked by the
batched ``batched_check_star_algebra``, and up to ``LOOP_CHECK_DIM`` by
the per-pair loop ``ref_check_star_algebra`` too, which the batched one
matches on broken spans."""

import functools
import json

import numpy as np
import pytest

import cartankit.matalg
from cartankit import cli
from cartankit.errors import DimensionOverflow
from cartankit.matalg import (
    _PRODUCT_CHUNK,
    FdStarAlgebra,
    _algebra_from_rows,
    _round_residuals,
    _vec,
    generate_star_algebra,
    row_span,
)
from cartankit.serialize import inclusion_to_json
from conftest import E, mndn_inclusion
from test_stacked_kernel import (
    batched_check_star_algebra,
    ref_check_star_algebra,
    ref_generate_rows,
)

TOL = 1e-10
#: Largest closed dimension the per-pair loop checker is run on: it makes
#: d^2 ``span_residual`` calls, 0.2 s at d = 64 and over 1 s at d = 128
#: (2-vCPU x86-64).
LOOP_CHECK_DIM = 36


def _unitary(n, seed):
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.standard_normal((n, n))
                        + 1j * rng.standard_normal((n, n)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _offsets(blocks):
    return np.cumsum((0,) + blocks)[:-1]


def _chain(blocks):
    """E_{i,i+1} inside each diagonal block."""
    n = sum(blocks)
    return [E(o + i, o + i + 1, n) for o, k in zip(_offsets(blocks), blocks)
            for i in range(k - 1)]


def _units(blocks):
    """Every matrix unit of the block algebra: a closed seed span."""
    n = sum(blocks)
    return [E(o + i, o + j, n) for o, k in zip(_offsets(blocks), blocks)
            for i in range(k) for j in range(k)]


def _generic(blocks):
    """One generic element of the block algebra."""
    rng = np.random.default_rng(sum(blocks))
    n = sum(blocks)
    x = np.zeros((n, n), dtype=complex)
    for o, k in zip(_offsets(blocks), blocks):
        x[o:o + k, o:o + k] = rng.standard_normal((k, k)) \
            + 1j * rng.standard_normal((k, k))
    return [x]


def _shift(n):
    return np.roll(np.eye(n, dtype=complex), 1, axis=0)


def _diag(n):
    return np.diag(np.random.default_rng(n).standard_normal(n)) + 0j


#: (name, n, generators, dimension of the generated algebra)
CASES = []
for _n in (6, 8, 12):
    CASES += [(f"shift+diag-M{_n}", _n, [_shift(_n), _diag(_n)], _n * _n),
              (f"shift-M{_n}", _n, [_shift(_n)], _n),
              (f"diag-M{_n}", _n, [_diag(_n)], _n)]
for _b, _diagonal in (((8, 8), 64), ((4, 4, 4, 4), 16), ((5, 5, 3), 34)):
    _full, _id = sum(k * k for k in _b), "+".join(map(str, _b))
    CASES += [(f"chain-{_id}", sum(_b), _chain(_b), _full),
              (f"units-{_id}", sum(_b), _units(_b), _full),
              (f"generic-{_id}", sum(_b), _generic(_b), _full),
              # equal blocks get the same image: x (+) x (+) ...
              (f"chain-sum-{_id}", sum(_b), [sum(_chain(_b))], _diagonal)]
for _k, _m in ((4, 2), (3, 4), (8, 2)):
    CASES.append((f"chain-M{_k}x1_{_m}", _k * _m,
                  [np.kron(g, np.eye(_m)) for g in _chain((_k,))], _k * _k))


@functools.lru_cache(maxsize=None)
def _reference_rows(name):
    """``ref_generate_rows`` on the case's generators, run once."""
    _, n, gens, _ = next(c for c in CASES if c[0] == name)
    return ref_generate_rows(n, gens)


@pytest.mark.parametrize("conjugated", [False, True], ids=["plain", "conj"])
@pytest.mark.parametrize("name,n,gens,dim", CASES,
                         ids=[c[0] for c in CASES])
def test_matches_all_products_reference(name, n, gens, dim, conjugated):
    rows = _reference_rows(name)
    if conjugated:
        u = _unitary(n, n)
        gens = [u @ g @ u.conj().T for g in gens]
        rows = _vec(u @ rows.reshape(-1, n, n) @ u.conj().T)
    A = generate_star_algebra(n, gens)
    assert A.dim == rows.shape[0] == dim
    assert np.abs(A.basis_rows.T @ A.basis_rows.conj()
                  - rows.T @ rows.conj()).max() < TOL
    assert batched_check_star_algebra(A) == []
    if A.dim <= LOOP_CHECK_DIM:
        assert ref_check_star_algebra(A) == []


def _broken(A):
    """Spans that are no *-algebra with an orthonormal basis: a direction
    dropped (the unit's, the last one), and one basis element scaled."""
    scaled = (2 * A.basis[0],) + A.basis[1:]
    return [FdStarAlgebra(A.ambient_dim, b, A.unit)
            for b in (A.basis[1:], A.basis[:-1], scaled)]


@pytest.mark.parametrize("name", [c[0] for c in CASES if c[1] <= 8])
def test_batched_checker_matches_loop(name):
    """The batched checker lists what the loop lists (residuals aside),
    in the same order, on closed algebras and on broken spans."""
    _, n, gens, _ = next(c for c in CASES if c[0] == name)
    A = generate_star_algebra(n, gens)
    kinds = lambda bad: [m.split(" (residual")[0] for m in bad]
    lists = [(kinds(batched_check_star_algebra(B)),
              kinds(ref_check_star_algebra(B))) for B in [A] + _broken(A)]
    assert all(got == want for got, want in lists)
    assert lists[0][0] == [] and all(got for got, _ in lists[1:])


def _count(monkeypatch, name):
    calls = []
    fn = getattr(cartankit.matalg, name)

    def counted(*args):
        calls.append(args)
        return fn(*args)
    monkeypatch.setattr(cartankit.matalg, name, counted)
    return calls


@pytest.mark.parametrize("blocks", [(2, 1), (5, 5, 3), (4, 4, 4, 4)])
def test_closed_seed_span_returned_unchanged(blocks, monkeypatch):
    """A seed span that is an algebra costs one product round, with no
    SVD: the only row_spans are the seed's and the final basis's."""
    n = sum(blocks)
    gens = _units(blocks)
    unit = np.eye(n, dtype=complex)
    want = _algebra_from_rows(
        n, row_span(_vec(gens + [g.conj().T for g in gens] + [unit])), unit)
    spans = _count(monkeypatch, "row_span")
    rounds = _count(monkeypatch, "_round_residuals")
    A = generate_star_algebra(n, gens)
    assert np.array_equal(A.basis_rows, want.basis_rows)
    assert len(spans) == 2 and len(rounds) == 1


def test_no_products_for_a_seed_spanning_m_n(monkeypatch):
    """M_n is closed: a seed span of dimension n^2 forms no product."""
    rounds = _count(monkeypatch, "_round_residuals")
    assert generate_star_algebra(4, _units((4,))).dim == 16
    assert rounds == []


def test_closure_stops_when_span_is_m_n(monkeypatch):
    """The round that brings the span to n^2 is the last one."""
    rounds = _count(monkeypatch, "_round_residuals")
    assert generate_star_algebra(4, [_shift(4), _diag(4)]).dim == 16
    assert rounds and all(len(V) < 16 for _, _, V in rounds)


@pytest.mark.parametrize("chunk", [1, _PRODUCT_CHUNK, 1 << 30])
@pytest.mark.parametrize("name", ["shift+diag-M6", "chain-4+4+4+4",
                                  "units-5+5+3", "chain-sum-5+5+3"])
def test_chunk_size_does_not_change_the_span(name, chunk, monkeypatch):
    _, n, gens, dim = next(c for c in CASES if c[0] == name)
    want = generate_star_algebra(n, gens)
    monkeypatch.setattr(cartankit.matalg, "_PRODUCT_CHUNK", chunk)
    A = generate_star_algebra(n, gens)
    assert A.dim == want.dim == dim
    assert np.abs(A.basis_rows.T @ A.basis_rows.conj()
                  - want.basis_rows.T @ want.basis_rows.conj()).max() < TOL


@pytest.mark.parametrize("chunk", [1, 16, _PRODUCT_CHUNK])
def test_round_residuals_keeps_every_row(chunk, monkeypatch):
    """A growth round returns the residuals of all its products, in order,
    the chunks formed before the running norm passed RANK_TOL included; a
    closed round returns None."""
    monkeypatch.setattr(cartankit.matalg, "_PRODUCT_CHUNK", chunk)
    n = 4
    diag = [E(i, i, n) for i in range(n)]
    S = np.array(diag)
    V = _vec(diag)
    new = np.array(diag[:2] + [E(0, 1, n)] + diag[2:])
    got = _round_residuals(S, new, V)
    P = _vec([s @ b for b in new for s in S])
    want = P - P @ V.conj().T @ V
    assert got is not None and got.shape == want.shape
    assert np.array_equal(got, want)
    assert _round_residuals(S, S, V) is None


@pytest.mark.parametrize("blocks", [(16,), (8, 8)])
def test_seed_over_cap_makes_one_row_span(blocks, monkeypatch):
    """A seed span over the cap is refused before any product is formed,
    whether or not it is all of M_n."""
    spans = _count(monkeypatch, "row_span")
    rounds = _count(monkeypatch, "_round_residuals")
    with pytest.raises(DimensionOverflow):
        generate_star_algebra(16, _units(blocks), cap=10)
    assert len(spans) == 1 and rounds == []


def test_cap_checked_before_each_round(monkeypatch):
    """No round's products are formed once the span exceeds the cap."""
    rounds = _count(monkeypatch, "_round_residuals")
    with pytest.raises(DimensionOverflow):
        generate_star_algebra(8, [_shift(8), _diag(8)], cap=20)
    assert rounds and all(len(V) <= 20 for _, _, V in rounds)
    assert generate_star_algebra(8, [_shift(8), _diag(8)], cap=64).dim == 64


def test_cli_cap_exits_on_the_seed_span(monkeypatch, tmp_path):
    path = tmp_path / "m8.json"
    path.write_text(json.dumps(inclusion_to_json(mndn_inclusion(8))))
    spans = _count(monkeypatch, "row_span")
    assert cli.main(["--cap", "10", "analyze", str(path)]) == 3
    assert len(spans) == 1

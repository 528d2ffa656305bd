"""Convolution summed over runs of pairs in product order
(``GroupoidArrays.product_runs``), against the scatter it replaced: one
bincount per real part over (rows x pairs) bins, kept here as the
reference."""

import dataclasses

import numpy as np
import pytest

from cartankit.groupoid import pair_groupoid
from cartankit.twist import CocycleTwist, _convolve_values, trivial_twist
from conftest import random_function, random_twist_corpus


def ref_convolve_bincount(T, degree, f, g):
    t, n = T.groupoid.arrays, len(T.groupoid.arrows)
    w = T.phases(degree) * f[..., t.a] * g[..., t.b]
    *lead, _ = w.shape
    rows = int(np.prod(lead))
    bins = (np.arange(rows)[:, None] * n + t.ab).ravel()
    part = lambda x: np.bincount(bins, x.ravel(), rows * n)
    return (part(w.real) + 1j * part(w.imag)).reshape(*lead, n)


CORPUS = random_twist_corpus(40, seed=31)


@pytest.mark.parametrize("T", CORPUS, ids=lambda T: str(len(T.sigma)))
@pytest.mark.parametrize("lead", [(), (3,), (2, 3)])
def test_same_values_as_the_scatter(T, lead):
    rng = np.random.default_rng(len(T.sigma))
    for k in (1, -1):
        f = np.array([random_function(T, k, rng).values
                      for _ in range(int(np.prod(lead)))]).reshape(
                          *lead, -1)
        g = random_function(T, k, rng).values
        for x, y in ((f, g), (g, f), (f, f)):
            got = _convolve_values(T, k, x, y)
            want = ref_convolve_bincount(T, k, x, y)
            assert got.shape == want.shape
            np.testing.assert_allclose(got, want, rtol=1e-14)


@pytest.mark.parametrize("T", CORPUS[:10], ids=lambda T: str(len(T.sigma)))
def test_runs_are_the_pairs_of_each_product(T):
    t = T.groupoid.arrays
    q, a, b, starts, hit = t.product_runs
    assert hit.all() and len(q) == len(t.pairs)
    assert np.array_equal(a, t.a[q]) and np.array_equal(b, t.b[q])
    ends = np.r_[starts[1:], len(q)]
    for c, (lo, hi) in enumerate(zip(starts, ends)):
        # pair order kept within a run
        assert np.array_equal(q[lo:hi], np.flatnonzero(t.ab == c))


def test_arrow_that_is_no_product_reads_zero():
    """Tables in which an arrow is no listed product (invalid ones) give
    it the value 0, as the scatter does."""
    P = pair_groupoid(2)
    table = {k: v for k, v in P.compose_table.items() if v != "u0<-u1"}
    T = trivial_twist(dataclasses.replace(P, compose_table=table))
    _, _, _, starts, hit = T.groupoid.arrays.product_runs
    assert list(hit) == [True, False, True, True] and len(starts) == 3
    f = np.arange(1.0, 5.0) + 1j
    got = _convolve_values(T, 1, f, f)
    assert got[1] == 0
    np.testing.assert_allclose(got, ref_convolve_bincount(T, 1, f, f),
                               rtol=1e-14)


def test_no_pairs():
    T = CocycleTwist(dataclasses.replace(pair_groupoid(1), compose_table={}),
                     {})
    assert np.array_equal(_convolve_values(T, 1, np.ones(1), np.ones(1)),
                          np.zeros(1))

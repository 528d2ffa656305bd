"""The left kernel {x in C : E(x* x) = 0} of a pseudo-expectation: decided
from x p_i rho_i = 0 (no square root of the corner densities); for the
canonical expectation it is 0 with no null space, so ``analyze`` computes
none."""

import json

import numpy as np
import pytest

import cartankit.inclusion
from cartankit import cli
from cartankit.inclusion import (
    PseudoExpectation,
    _left_kernel_subspace,
    left_kernel,
    pseudo_expectations,
)
from cartankit.serialize import inclusion_to_json
from conftest import m2c_inclusion, mndn_inclusion


def _rank_one(x):
    return np.outer(x, x.conj()) / np.vdot(x, x)


class TestRankOneDensity:
    @pytest.mark.parametrize("seed", range(5))
    def test_m2c_left_kernel_is_two_dimensional(self, seed):
        """C = M_2 + C, one corner p = 1: {b in C : b x = 0} is the M_2
        block's matrices killing (x_0, x_1), with the scalar part 0."""
        inc = m2c_inclusion()
        rng = np.random.default_rng(seed)
        (p,) = inc.min_projs
        x = p @ (rng.standard_normal(3) + 1j * rng.standard_normal(3))
        L = _left_kernel_subspace(inc, PseudoExpectation(inc, (_rank_one(x),)))
        assert L.dim == 2
        for b in L.basis:
            assert np.linalg.norm(b @ x) < 1e-10

    def test_mndn_rank_one_corners_stay_faithful(self):
        """Every corner of D_n in M_n is one-dimensional: the only state is
        the canonical one and the left kernel is 0."""
        for n in (2, 3, 4):
            inc = mndn_inclusion(n)
            dens = tuple(_rank_one(np.diag(p)) for p in inc.min_projs)
            assert left_kernel(inc, PseudoExpectation(inc, dens)).dim == 0


class TestComputedOnce:
    def test_carried_on_the_set(self):
        inc = mndn_inclusion(3)
        pe = pseudo_expectations(inc)
        assert pe.left_kernel.dim == left_kernel(inc, pe.expectation).dim == 0
        assert pe.faithful is True

    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_one_left_kernel_per_analyze(self, tmp_path, capsys,
                                         monkeypatch, n):
        calls = []
        real = cartankit.inclusion._left_kernel_subspace

        def counted(inc, E):
            calls.append(inc)
            return real(inc, E)

        monkeypatch.setattr(cartankit.inclusion, "_left_kernel_subspace",
                            counted)
        path = tmp_path / "inc.json"
        path.write_text(json.dumps(inclusion_to_json(mndn_inclusion(n))))
        assert cli.main(["analyze", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["left_kernel_dim"] == 0
        assert len(calls) == 0

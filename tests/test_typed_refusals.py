"""Typed refusals that the rest of the suite never reaches, one test per
refusal: its error type and its message."""

import json
import re

import numpy as np
import pytest

from cartankit.cli import main
from cartankit.envelope import build_cover, cover_comparison, covers_nested
from cartankit.errors import (
    DegreeMismatch,
    NotAbelian,
    NotASubalgebra,
    NotInvariant,
    NotNested,
    ParseError,
    UnknownArrow,
)
from cartankit.groupoid import pair_groupoid
from cartankit.inclusion import ModState, make_inclusion
from cartankit.matalg import FdStarAlgebra, _vec, generate_star_algebra
from cartankit.serialize import classify
from cartankit.twist import EquivariantFunction, function, trivial_twist
from conftest import E, mndn_inclusion


def _refused(error, message):
    return pytest.raises(error, match="^" + re.escape(message) + "$")


# --- make_inclusion ------------------------------------------------------

def _m2():
    return generate_star_algebra(2, [E(0, 1, 2)])


def _d2():
    return generate_star_algebra(2, [E(0, 0, 2)])


def test_make_inclusion_d_outside_c():
    with _refused(NotASubalgebra, "D is not contained in C"):
        make_inclusion(_d2(), _m2())


def test_make_inclusion_d_not_abelian():
    with _refused(NotAbelian, "D is not abelian"):
        make_inclusion(_m2(), _m2())


def test_make_inclusion_units_differ():
    """D = C E_00 lies in M_2 and is abelian, but its unit is E_00."""
    corner = FdStarAlgebra(2, _vec([E(0, 0, 2)]), E(0, 0, 2))
    with _refused(NotASubalgebra, "C and D do not share a unit"):
        make_inclusion(_m2(), corner)


# --- covers --------------------------------------------------------------

def _off_corner(inc, size, steps=50):
    """Values on C's basis of a functional that is 0 on every p_i C p_i
    (here C p_i), each entry of modulus ``size``: alternately set every
    modulus to 1 and project out the values on the p_i."""
    P = np.array([inc.C.coefficients(p) for p in inc.min_projs])
    v = np.exp(2j * np.pi * np.random.default_rng(0).random(inc.C.dim))
    for _ in range(steps):
        v = np.exp(1j * np.angle(v))
        v -= np.linalg.pinv(P) @ (P @ v)
    return size * v / np.abs(v).max()


def test_build_cover_not_invariant():
    """On M_2 > D_2 the state at corner 0 plus 0.1 x -> x_01 is still a
    character of C p_0 and tracial on it, so it passes the compatibility
    check; but the transport of the corner-1 state to corner 0 is the
    plain corner state, which the custom cover lacks.  (A positive
    functional at a scalar corner is the corner state itself, so only a
    functional that is no state reaches this refusal.)"""
    inc = mndn_inclusion(2)
    s0, s1 = build_cover(inc).states
    junk = ModState(inc, 0, s0.values + 0.1 * inc.C.stack[:, 0, 1])
    with _refused(NotInvariant, "cover is not invariant under the "
                                "normalizer action"):
        build_cover(inc, "custom", F=[junk, s1])


def test_cover_comparison_classes_do_not_match():
    """A cover whose corner-0 functional moves by less than STATE_TOL on
    every basis value of M_12 nests in the strongly compatible cover, but
    its unit class moves by more than COVER_MATCH_TOL in norm."""
    inc = mndn_inclusion(12)
    F2 = build_cover(inc)
    s = F2.states
    moved = ModState(inc, 0, s[0].values + _off_corner(inc, 0.95e-7))
    F1 = build_cover(inc, "custom", F=[moved] + list(s[1:]))
    assert covers_nested(F1, F2) == list(range(len(s)))
    with _refused(NotNested, "could not match eigenfunctional classes "
                             "between the covers"):
        cover_comparison(inc, F1, F2)


# --- files ---------------------------------------------------------------

UNRECOGNIZED = ("unrecognized schema: expected a groupoid, twist, or "
                "inclusion object")


def test_classify_unrecognized_schema():
    with _refused(ParseError, UNRECOGNIZED):
        classify({"matrices": []})


@pytest.mark.parametrize("cmd", ["validate", "cstar", "analyze", "weyl",
                                 "envelope", "compare"])
def test_unrecognized_schema_cli(cmd, tmp_path, capsys):
    path = tmp_path / "other.json"
    path.write_text(json.dumps({"matrices": []}))
    assert main([cmd, str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"input error: {UNRECOGNIZED}\n"


# --- equivariant functions -----------------------------------------------

def test_equivariant_function_degree():
    T = trivial_twist(pair_groupoid(2))
    with _refused(DegreeMismatch, "degree must be +-1, got 2"):
        EquivariantFunction(T, 2, np.zeros(4))


def test_equivariant_function_shape():
    T = trivial_twist(pair_groupoid(2))
    with _refused(UnknownArrow, "value vector has shape (3,), expected (4,)"):
        EquivariantFunction(T, 1, np.zeros(3))


def test_function_unknown_arrow():
    T = trivial_twist(pair_groupoid(2))
    with _refused(UnknownArrow, "unknown arrow 'u0<-u9'"):
        function(T, 1, {"u0<-u0": 1.0, "u0<-u9": 2.0})

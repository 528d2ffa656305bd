import copy
import json
import re

import numpy as np
import pytest

from cartankit.cli import main
from cartankit.groupoid import (
    cyclic_groupoid,
    group_groupoid,
    klein_four_groupoid,
    pair_groupoid,
)
from cartankit.serialize import (
    groupoid_from_json,
    groupoid_to_json,
    inclusion_from_json,
    inclusion_to_json,
    matrix_from_json,
    matrix_to_json,
    twist_from_json,
    twist_to_json,
)
from conftest import k4_nontrivial_sigma, mndn_inclusion, m2c_inclusion
from cartankit.errors import ParseError
from cartankit.twist import CocycleTwist, trivial_twist, validate_cocycle, \
    validate_twist


def write(tmp_path, name, obj):
    p = tmp_path / name
    p.write_text(json.dumps(obj))
    return str(p)


@pytest.fixture
def pair2_file(tmp_path):
    return write(tmp_path, "pair2.json", groupoid_to_json(pair_groupoid(2)))


@pytest.fixture
def k4ns_file(tmp_path):
    T = k4_nontrivial_sigma(klein_four_groupoid())
    return write(tmp_path, "k4ns.json", twist_to_json(T))


@pytest.fixture
def m2d2_file(tmp_path):
    return write(tmp_path, "m2d2.json", inclusion_to_json(mndn_inclusion(2)))


@pytest.fixture
def m2c_file(tmp_path):
    return write(tmp_path, "m2c.json", inclusion_to_json(m2c_inclusion()))


class TestSerialize:
    def test_matrix_round_trip(self):
        rng = np.random.default_rng(0)
        m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        assert np.allclose(matrix_from_json(matrix_to_json(m)), m)

    def test_groupoid_round_trip(self):
        G = pair_groupoid(3)
        H = groupoid_from_json(groupoid_to_json(G))
        assert H.arrows == G.arrows
        assert H.compose_table == G.compose_table

    def test_twist_round_trip(self):
        T = k4_nontrivial_sigma(klein_four_groupoid())
        S = twist_from_json(twist_to_json(T))
        for key in T.sigma:
            assert abs(S.sigma[key] - T.sigma[key]) < 1e-14

    def test_inclusion_round_trip(self):
        inc = mndn_inclusion(2)
        back = inclusion_from_json(inclusion_to_json(inc))
        assert back.C.dim == inc.C.dim
        assert back.D.dim == inc.D.dim
        assert back.is_masa


class TestValidate:
    def test_pair2_ok(self, pair2_file, capsys):
        assert main(["validate", pair2_file]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["schema"] == "cartankit/v1"
        assert report["valid"] is True

    def test_corrupted_inverse(self, tmp_path, capsys):
        data = groupoid_to_json(pair_groupoid(2))
        for a in data["arrows"]:
            if a["id"] == "u0<-u1":
                a["inv"] = "u0<-u1"
        path = write(tmp_path, "bad.json", data)
        assert main(["validate", path]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["valid"] is False
        assert any("u0<-u1" in v for v in report["violations"])

    def test_truncated_json(self, tmp_path, capsys):
        p = tmp_path / "trunc.json"
        p.write_text('{"units": ["u0"], "arrows": [')
        assert main(["validate", str(p)]) == 2
        err = capsys.readouterr().err
        assert "line" in err and "column" in err

    def test_missing_file(self, tmp_path):
        assert main(["validate", str(tmp_path / "nope.json")]) == 2

    def test_inclusion_file(self, m2d2_file):
        assert main(["validate", m2d2_file]) == 0


class TestCstar:
    def test_k4_ns(self, k4ns_file, capsys):
        assert main(["cstar", k4ns_file]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["block_structure"] == [2]
        assert report["cartan"]["is_cartan"] is False

    def test_k4_trivial(self, tmp_path, capsys):
        path = write(tmp_path, "k4t.json",
                     twist_to_json(trivial_twist(klein_four_groupoid())))
        assert main(["cstar", path]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["block_structure"] == [1, 1, 1, 1]

    def test_pair2_cartan(self, pair2_file, capsys):
        assert main(["cstar", pair2_file]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["block_structure"] == [2]
        assert report["cartan"] == {"masa": True, "regular": True,
                                    "faithful_E": True, "is_cartan": True}
        assert all(abs(v - 1.0) < 1e-9
                   for v in report["norm_table"].values())

    def test_empty_groupoid_refused(self, tmp_path, capsys):
        """A groupoid with no units is valid and realizes to the zero
        algebra, which has no unit: a typed refusal, not a traceback."""
        path = write(tmp_path, "empty.json", {"units": [], "arrows": [],
                                              "compose": [],
                                              "unit_arrows": {}})
        assert main(["validate", path]) == 0
        assert json.loads(capsys.readouterr().out)["valid"] is True
        assert main(["cstar", path]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: the zero algebra has no unit")
        assert "Traceback" not in captured.err

    def test_degree_flag(self, k4ns_file, capsys):
        assert main(["--degree", "-1", "cstar", k4ns_file]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["degree"] == -1
        assert report["block_structure"] == [2]


class TestAnalyze:
    def test_m2d2(self, m2d2_file, capsys):
        assert main(["analyze", m2d2_file]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["masa"] and report["regular"]
        assert report["unique_pseudo_expectation"] and report["faithful"]
        assert report["left_kernel_dim"] == 0
        assert report["strongly_compatible_states"] == 2

    def test_m2c(self, m2c_file, capsys):
        assert main(["analyze", m2c_file]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["unique_pseudo_expectation"] is False
        assert report["masa"] is False
        assert report["commutant_dim"] == report["C_dim"]


class TestWeylEnvelopeCompare:
    def test_weyl_m2d2(self, m2d2_file, capsys):
        assert main(["weyl", m2d2_file]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["units"] == 2
        assert report["arrows"] == 4

    def test_weyl_self_inclusion(self, tmp_path, capsys):
        from cartankit.inclusion import make_inclusion
        from cartankit.matalg import generate_star_algebra
        from conftest import E
        D = generate_star_algebra(2, [E(0, 0, 2), E(1, 1, 2)])
        inc = make_inclusion(D, D, list(D.basis))
        path = write(tmp_path, "dd.json", inclusion_to_json(inc))
        assert main(["weyl", path]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["units"] == report["arrows"] == 2

    def test_envelope_m2d2(self, m2d2_file, capsys):
        assert main(["envelope", m2d2_file]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["success"] is True
        assert all(report["certificate"].values())
        assert report["block_structure"] == [2]

    def test_envelope_m2c(self, m2c_file, capsys):
        assert main(["envelope", m2c_file]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["success"] is False
        assert "non-abelian" in report["rejection_reason"]

    def test_compare_crosscheck(self, m2d2_file, capsys):
        assert main(["compare", m2d2_file]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["mode"] == "envelope-crosscheck"
        assert report["agree"] is True

    def test_compare_twists_agree(self, pair2_file, tmp_path, capsys):
        other = write(tmp_path, "pair2b.json",
                      groupoid_to_json(pair_groupoid(2, prefix="v")))
        assert main(["compare", pair2_file, other]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["agree"] is True

    def test_compare_twists_disagree(self, pair2_file, k4ns_file, capsys):
        assert main(["compare", pair2_file, k4ns_file]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["agree"] is False


def z4_squared():
    """Z/4 x Z/4 over one unit, elements z00 .. z33."""
    els = [f"{i}{j}" for i in range(4) for j in range(4)]
    return group_groupoid(
        els, lambda x, y: f"{(int(x[0]) + int(y[0])) % 4}"
                          f"{(int(x[1]) + int(y[1])) % 4}",
        lambda x: f"{-int(x[0]) % 4}{-int(x[1]) % 4}", "00", prefix="z")


class TestCompareUndecided:
    """Above the exhaustive search's 12 arrows a matching signature is not
    an isomorphism: ``compare`` says undecided (exit 4)."""

    def test_z16_vs_z4_squared(self, tmp_path, capsys):
        a = write(tmp_path, "z16.json", groupoid_to_json(cyclic_groupoid(16)))
        b = write(tmp_path, "z4z4.json", groupoid_to_json(z4_squared()))
        assert main(["compare", a, b]) == 4
        report = json.loads(capsys.readouterr().out)
        assert report["block_structures"] == [[1] * 16, [1] * 16]
        assert report["groupoids_isomorphic"] is None
        assert report["agree"] is None

    def test_different_blocks_decide(self, tmp_path, capsys):
        """A nondegenerate bicharacter makes C*(Z/4 x Z/4, sigma) = M_4."""
        G = z4_squared()
        sigma = {(x, y): 1j ** (int(x[1]) * int(y[2]))
                 for x, y in G.compose_table}
        a = write(tmp_path, "z16.json", groupoid_to_json(cyclic_groupoid(16)))
        b = write(tmp_path, "z4z4s.json",
                  twist_to_json(CocycleTwist(G, sigma)))
        assert main(["compare", a, b]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["block_structures"] == [[1] * 16, [4]]
        assert report["groupoids_isomorphic"] is None
        assert report["agree"] is False

    def test_same_tables_agree(self, tmp_path, capsys):
        a = write(tmp_path, "z16.json", groupoid_to_json(cyclic_groupoid(16)))
        assert main(["compare", a, a]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["groupoids_isomorphic"] is True
        assert report["agree"] is True

    def test_text_format_shows_null(self, tmp_path, capsys):
        a = write(tmp_path, "z16.json", groupoid_to_json(cyclic_groupoid(16)))
        b = write(tmp_path, "z4z4.json", groupoid_to_json(z4_squared()))
        assert main(["--format", "text", "compare", a, b]) == 4
        assert "agree: null" in capsys.readouterr().out


class TestMalformedTables:
    """A compose or cocycle table keeps one entry per pair, so a file that
    repeats a pair, or an arrow id, is refused with its name (exit 2), as
    is a compose entry of other than three items."""

    @pytest.fixture(scope="class")
    def pair20(self):
        return twist_to_json(trivial_twist(pair_groupoid(20)))

    def _refused(self, tmp_path, capsys, data, cmd, message):
        path = write(tmp_path, "bad.json", data)
        assert main([cmd, path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"input error: {message}\n"

    @pytest.mark.parametrize("cmd", ["validate", "cstar"])
    def test_conflicting_compose_entry(self, tmp_path, capsys, pair20, cmd):
        data = copy.deepcopy(pair20)
        compose = data["groupoid"]["compose"]
        k = compose.index(["u0<-u1", "u1<-u2", "u0<-u2"])
        compose.insert(k, ["u0<-u1", "u1<-u2", "u5<-u5"])
        self._refused(tmp_path, capsys, data, cmd, "repeated compose entry "
                      "for pair ('u0<-u1', 'u1<-u2')")

    @pytest.mark.parametrize("cmd", ["validate", "cstar"])
    def test_repeated_compose_entry(self, tmp_path, capsys, cmd):
        data = groupoid_to_json(cyclic_groupoid(3))
        data["compose"].append(list(data["compose"][4]))
        a, b, _ = data["compose"][4]
        self._refused(tmp_path, capsys, data, cmd, "repeated compose entry "
                      f"for pair ({a!r}, {b!r})")

    @pytest.mark.parametrize("cmd", ["validate", "cstar"])
    def test_repeated_cocycle_entry(self, tmp_path, capsys, cmd):
        T = k4_nontrivial_sigma(klein_four_groupoid())
        data = twist_to_json(T)
        (a, b), _ = data["cocycle"][1]
        data["cocycle"].append([[a, b], [1.0, 0.0]])
        self._refused(tmp_path, capsys, data, cmd, "repeated cocycle entry "
                      f"for pair ({a!r}, {b!r})")

    @pytest.mark.parametrize("cmd", ["validate", "cstar"])
    @pytest.mark.parametrize("items,error", [
        (2, "not enough values to unpack (expected 3, got 2)"),
        (4, "too many values to unpack (expected 3)")])
    def test_compose_entry_length(self, tmp_path, capsys, cmd, items,
                                  error):
        data = groupoid_to_json(pair_groupoid(2))
        data["compose"][3] = (data["compose"][3] + ["u0<-u0"])[:items]
        self._refused(tmp_path, capsys, data, cmd,
                      f"malformed groupoid object: {error}")

    @pytest.mark.parametrize("cmd", ["validate", "cstar"])
    def test_repeated_arrow_id(self, tmp_path, capsys, cmd):
        data = groupoid_to_json(pair_groupoid(3))
        data["arrows"].append(dict(data["arrows"][4]))
        self._refused(tmp_path, capsys, data, cmd,
                      f"repeated arrow id {data['arrows'][4]['id']!r}")

    @pytest.mark.parametrize("cmd", ["validate", "cstar"])
    def test_repeated_unit_id(self, tmp_path, capsys, cmd):
        """A repeated unit would pass validation and then break the
        orbit computation of ``cstar``."""
        data = groupoid_to_json(pair_groupoid(2))
        data["units"].append("u0")
        self._refused(tmp_path, capsys, data, cmd, "repeated unit id 'u0'")

    @pytest.mark.parametrize("cmd", ["validate", "cstar"])
    def test_non_composable_cocycle_entry(self, tmp_path, capsys, cmd):
        data = twist_to_json(trivial_twist(pair_groupoid(2)))
        data["cocycle"] = [[["u0<-u1", "u0<-u1"], [1.0, 0.0]]]
        self._refused(tmp_path, capsys, data, cmd, "cocycle entry on "
                      "non-composable pair ('u0<-u1', 'u0<-u1')")

    @pytest.mark.parametrize("value,error", [
        (["1", 0], "complex() can't take second arg if first is a string"),
        ([0, None], "complex() second argument must be a number, "
                    "not 'NoneType'"),
        ([1.0], "not enough values to unpack (expected 2, got 1)"),
        ([1, 0, 0], "too many values to unpack (expected 2)"),
        ([10 ** 400, 0], "int too large to convert to float")])
    def test_malformed_cocycle_value(self, tmp_path, capsys, value, error):
        data = twist_to_json(trivial_twist(pair_groupoid(2)))
        data["cocycle"] = [[["u0<-u1", "u1<-u0"], value]]
        self._refused(tmp_path, capsys, data, "validate",
                      f"malformed cocycle entry: {error}")

    def test_big_integer_phase_part(self, tmp_path, capsys):
        """A JSON integer past int64 is a number: its modulus is refused."""
        data = twist_to_json(trivial_twist(pair_groupoid(2)))
        data["cocycle"] = [[["u0<-u1", "u1<-u0"], [10 ** 20, 0]]]
        path = write(tmp_path, "big.json", data)
        assert main(["validate", path]) == 1
        assert "sigma('u0<-u1','u1<-u0') has modulus 1e+20 != 1" in \
            capsys.readouterr().out


class TestNonFiniteInputs:
    """A NaN phase fails the modulus line like any other modulus off 1,
    and a non-finite matrix entry or an ambient_dim that is no integer
    >= 1 is an input error (exit 2) on every command, not a traceback."""

    NAN = "sigma('u0<-u1','u1<-u0') has modulus nan != 1"

    @pytest.fixture
    def nan_twist(self):
        data = twist_to_json(trivial_twist(pair_groupoid(2)))
        data["cocycle"] = [[["u0<-u1", "u1<-u0"], [float("nan"), 0.0]]]
        return data

    def test_nan_phase_library(self, nan_twist):
        T = twist_from_json(nan_twist)
        assert validate_cocycle(T) == [self.NAN]
        assert validate_twist(T) == [self.NAN]

    def test_nan_phase_cli(self, tmp_path, capsys, nan_twist):
        path = write(tmp_path, "nan.json", nan_twist)
        assert main(["validate", path]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["valid"] is False and report["violations"] == [self.NAN]
        assert main(["cstar", path]) == 1
        assert json.loads(capsys.readouterr().out)["violations"] == \
            [self.NAN]
        for argv in (["compare", path, path],
                     ["compare", write(tmp_path, "p2.json", groupoid_to_json(
                         pair_groupoid(2))), path]):
            assert main(argv) == 1
            assert [self.NAN] in json.loads(
                capsys.readouterr().out)["violations"]

    @pytest.mark.parametrize("field,where,value,message", [
        ("C_generators", (0, 0, 0), [float("nan"), 0.0],
         "malformed matrix entry: array must not contain infs or NaNs"),
        ("D_generators", (1, 1, 1), [0.0, float("inf")],
         "malformed matrix entry: array must not contain infs or NaNs"),
        ("normalizers", (0, 0, 1), [float("-inf"), 0.0],
         "malformed matrix entry: array must not contain infs or NaNs"),
        ("ambient_dim", (), -1, "malformed inclusion object: "
         "ambient_dim -1 is not an integer >= 1"),
        ("ambient_dim", (), 0, "malformed inclusion object: "
         "ambient_dim 0 is not an integer >= 1"),
        ("ambient_dim", (), 2.5, "malformed inclusion object: "
         "ambient_dim 2.5 is not an integer >= 1"),
        ("ambient_dim", (), "2", "malformed inclusion object: "
         "ambient_dim '2' is not an integer >= 1"),
        ("ambient_dim", (), True, "malformed inclusion object: "
         "ambient_dim True is not an integer >= 1")],
        ids=["nan-C", "inf-D", "-inf-normalizer", "dim-1", "dim0",
             "dim2.5", "dim-string", "dim-true"])
    def test_bad_inclusion_file(self, tmp_path, capsys, field, where, value,
                                message):
        data = inclusion_to_json(mndn_inclusion(2))
        if where:
            k, i, j = where
            data[field][k][i][j] = value
        else:
            data[field] = value
        path = write(tmp_path, "bad.json", data)
        for cmd in ("validate", "analyze", "weyl", "envelope", "compare"):
            assert main([cmd, path]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"input error: {message}\n"
        assert main(["cstar", path]) == 2
        assert capsys.readouterr().err == "input error: expected a " \
            "groupoid or twist file, found inclusion\n"
        with pytest.raises(ParseError, match=re.escape(message)):
            inclusion_from_json(json.loads(json.dumps(data)))


class TestGeneratorShapes:
    """A generator that is not ambient_dim x ambient_dim is malformed input
    (exit 2), named by its list and index, not a violation (exit 1)."""

    COMMANDS = ("validate", "analyze", "weyl", "envelope", "compare")

    def _refused(self, tmp_path, capsys, data, message):
        path = write(tmp_path, "bad.json", data)
        for cmd in self.COMMANDS:
            assert main([cmd, path]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"input error: {message}\n"
        with pytest.raises(ParseError, match=re.escape(message)):
            inclusion_from_json(data)

    @pytest.mark.parametrize("field,k,rows,cols", [
        ("C_generators", 0, 3, 3), ("D_generators", 1, 3, 3),
        ("normalizers", 2, 3, 3), ("C_generators", 3, 2, 3),
        ("normalizers", 0, 1, 2)])
    def test_one_matrix_of_a_list(self, tmp_path, capsys, field, k, rows,
                                  cols):
        data = inclusion_to_json(mndn_inclusion(2))
        data[field][k] = [[[0.0, 0.0]] * cols] * rows
        self._refused(tmp_path, capsys, data, f"{field}[{k}] has shape "
                      f"({rows}, {cols}), expected (2, 2)")

    def test_ambient_dim_above_the_matrices(self, tmp_path, capsys):
        data = inclusion_to_json(mndn_inclusion(2))
        data["ambient_dim"] = 3
        self._refused(tmp_path, capsys, data,
                      "C_generators[0] has shape (2, 2), expected (3, 3)")

    def test_empty_matrix(self, tmp_path, capsys):
        data = inclusion_to_json(mndn_inclusion(2))
        data["normalizers"][1] = []
        self._refused(tmp_path, capsys, data,
                      "normalizers[1] has shape (0,), expected (2, 2)")


class TestWrongKind:
    """Every command classifies its file before compiling it: a file of
    the wrong kind, or a top-level value that is no object, is an input
    error naming what was found (exit 2)."""

    INCLUSION_COMMANDS = [["analyze"], ["weyl"], ["envelope"], ["compare"]]

    def _refused(self, capsys, argv, message):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"input error: {message}\n"

    @pytest.mark.parametrize("cmd", INCLUSION_COMMANDS, ids=lambda c: c[0])
    def test_twist_file(self, tmp_path, capsys, k4ns_file, cmd):
        self._refused(capsys, cmd + [k4ns_file],
                      "expected an inclusion file, found twist")

    @pytest.mark.parametrize("cmd", INCLUSION_COMMANDS, ids=lambda c: c[0])
    def test_groupoid_file(self, tmp_path, capsys, cmd):
        path = write(tmp_path, "g.json", groupoid_to_json(pair_groupoid(2)))
        self._refused(capsys, cmd + [path],
                      "expected an inclusion file, found groupoid")

    @pytest.mark.parametrize("cmd", INCLUSION_COMMANDS + [
        ["validate"], ["cstar"]], ids=lambda c: c[0])
    def test_top_level_list(self, tmp_path, capsys, cmd):
        path = write(tmp_path, "list.json", [1, 2])
        self._refused(capsys, cmd + [path],
                      "top-level JSON value must be an object")

    def test_twist_commands_refuse_an_inclusion(self, tmp_path, capsys,
                                                m2d2_file, pair2_file):
        message = "expected a groupoid or twist file, found inclusion"
        self._refused(capsys, ["cstar", m2d2_file], message)
        self._refused(capsys, ["compare", pair2_file, m2d2_file], message)
        self._refused(capsys, ["compare", m2d2_file, pair2_file], message)

    def test_inclusion_files_still_read(self, capsys, m2d2_file):
        for cmd in ("validate", "analyze", "weyl", "envelope", "compare"):
            assert main([cmd, m2d2_file]) == 0
            assert json.loads(capsys.readouterr().out)


class TestOptionsAndDeterminism:
    def test_tolerance_range(self, pair2_file):
        assert main(["--tolerance", "1e-2", "validate", pair2_file]) == 2
        assert main(["--tolerance", "1e-16", "validate", pair2_file]) == 2

    def test_word_bound_refused(self, pair2_file, m2d2_file, capsys):
        """Normalizer classes are exact, so there is no word bound to set
        or to report."""
        for argv in (["--word-bound", "4", "validate", pair2_file],
                     ["--word-bound=4", "analyze", m2d2_file]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
        capsys.readouterr()
        for cmd, path in (("validate", pair2_file), ("cstar", pair2_file),
                          ("analyze", m2d2_file), ("weyl", m2d2_file),
                          ("envelope", m2d2_file), ("compare", m2d2_file)):
            main([cmd, path])
            report = json.loads(capsys.readouterr().out)
            assert "word_bound" not in report
            assert report["tolerance"] == 1e-9

    def test_resource_cap(self, m2d2_file, capsys):
        assert main(["--cap", "2", "analyze", m2d2_file]) == 3
        assert "resource cap" in capsys.readouterr().err

    def test_cap_range(self, pair2_file, m2d2_file, capsys):
        """A cap below 1 is an input error on every command, as an
        out-of-range tolerance is; a cap of 1 is in range."""
        for cap in ("-3", "0"):
            for argv in (["analyze", m2d2_file], ["validate", pair2_file]):
                assert main(["--cap", cap, *argv]) == 2
                assert capsys.readouterr() == (
                    "", "cap out of range: must be at least 1\n")
        assert main(["--cap", "1", "analyze", m2d2_file]) == 3

    def test_deterministic_json(self, m2d2_file, capsys):
        main(["analyze", m2d2_file])
        first = capsys.readouterr().out
        main(["analyze", m2d2_file])
        second = capsys.readouterr().out
        assert first == second

    def test_text_format(self, pair2_file, capsys):
        assert main(["--format", "text", "validate", pair2_file]) == 0
        out = capsys.readouterr().out
        assert "valid: true" in out
        assert not out.lstrip().startswith("{")

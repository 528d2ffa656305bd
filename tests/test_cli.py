import json

import numpy as np
import pytest

from cartankit.cli import main
from cartankit.groupoid import klein_four_groupoid, pair_groupoid
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
from cartankit.twist import trivial_twist


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


class TestOptionsAndDeterminism:
    def test_tolerance_range(self, pair2_file):
        assert main(["--tolerance", "1e-2", "validate", pair2_file]) == 2
        assert main(["--tolerance", "1e-16", "validate", pair2_file]) == 2

    def test_word_bound_range(self, pair2_file):
        assert main(["--word-bound", "0", "validate", pair2_file]) == 2
        assert main(["--word-bound", "9", "validate", pair2_file]) == 2

    def test_resource_cap(self, m2d2_file, capsys):
        assert main(["--cap", "2", "analyze", m2d2_file]) == 3
        assert "resource cap" in capsys.readouterr().err

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

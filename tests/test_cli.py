"""CLI dispatch: payloads, exit codes, determinism, generator/verifier loops."""

import io
import json
import subprocess
import sys

import pytest

from hardmat.cli import dispatch, main, read_matrix
from hardmat.constructions import trivial_hard
from hardmat.fields import prime_field
from hardmat.matrices import identity, matrix_from_json, matrix_to_json


def run(argv, stdin_text=None, monkeypatch=None):
    if stdin_text is not None:
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin_text))
    return dispatch(argv)


class TestSidonCommand:
    def test_construct_payload(self):
        result = dispatch(["sidon", "--n", "2", "--t", "1"])
        assert result.exit_code == 0
        assert result.payload == {"n": 2, "t": 1, "p": 5, "grid": [[1, 2], [4, 3]]}
        assert result.provenance["operation"] == "sidon"

    def test_verify_round_trip(self, monkeypatch):
        first = dispatch(["sidon", "--n", "2", "--t", "2"])
        blob = json.dumps(first.payload)
        verify = run(["sidon", "--verify", "--t", "2"], blob, monkeypatch)
        assert verify.exit_code == 0
        assert verify.payload == {"t": 2, "distinct": True}

    def test_verify_accepts_raw_array(self, monkeypatch):
        result = run(["sidon", "--verify", "--t", "2"], "[1, 2, 4, 8]", monkeypatch)
        assert result.payload == {"t": 2, "distinct": True}
        result = run(["sidon", "--verify", "--t", "2"], "[1, 2, 3, 4]", monkeypatch)
        assert result.payload == {"t": 2, "distinct": False}

    def test_budget_exit_code(self):
        result = dispatch(["sidon", "--n", "3", "--t", "2", "--prime-budget", "20"])
        assert result.exit_code == 3
        assert result.payload["error"]["type"] == "budget"

    def test_missing_n(self):
        result = dispatch(["sidon", "--t", "1"])
        assert result.exit_code == 1


class TestExitCodes:
    def test_unknown_command_is_usage_error(self):
        assert dispatch(["frobnicate"]).exit_code == 2

    def test_unknown_flag_is_usage_error(self):
        assert dispatch(["sidon", "--n", "2", "--t", "1", "--wat"]).exit_code == 2

    def test_domain_error_from_bad_matrix(self, monkeypatch):
        bad = json.dumps(
            {"field": {"kind": "prime", "p": 5}, "rows": 1, "cols": 1, "entries": ["6"]}
        )
        result = run(["ssdim", "gamma", "--t", "1"], bad, monkeypatch)
        assert result.exit_code == 1
        assert result.payload["error"]["type"] == "domain"

    def test_non_ascii_digit_is_domain_error(self, monkeypatch):
        bad = json.dumps(
            {
                "field": {"kind": "prime", "p": 5},
                "rows": 1,
                "cols": 2,
                "entries": ["\u0663", "1"],  # ARABIC-INDIC DIGIT THREE
            }
        )
        result = run(["hitting", "kernelweight"], bad, monkeypatch)
        assert result.exit_code == 1
        assert result.payload["error"]["type"] == "domain"

    def test_malformed_json_is_domain_error(self, monkeypatch):
        result = run(["ssdim", "gamma", "--t", "1"], "{not json", monkeypatch)
        assert result.exit_code == 1

    def test_missing_file_is_domain_error(self):
        result = dispatch(["hard", "amplify", "--m", "2", "--in", "/nonexistent.json"])
        assert result.exit_code == 1

    def test_parse_error_carries_location(self, monkeypatch):
        result = run(["circuit", "parse"], "field prime 5\nlayer 1 1\n1 1 9\nend\n", monkeypatch)
        assert result.exit_code == 1
        assert result.payload["error"]["type"] == "parse"
        assert result.payload["error"]["line"] == 3


class TestDeterminism:
    def test_byte_identical_stdout(self):
        cmd = [sys.executable, "-m", "hardmat", "hard", "integers", "--n", "2", "--t", "2"]
        a = subprocess.run(cmd, capture_output=True, check=True)
        b = subprocess.run(cmd, capture_output=True, check=True)
        assert a.stdout == b.stdout
        assert a.stdout.strip()
        json.loads(a.stdout)  # payload parses

    def test_console_entry_point_round_trip(self):
        cmd = [sys.executable, "-m", "hardmat", "psd", "build", "--n", "2"]
        out = subprocess.run(cmd, capture_output=True, check=True)
        payload = json.loads(out.stdout)
        assert payload["m"]["entries"] == ["1/1", "-1/1", "-1/1", "1/1"]


class TestHardPipelines:
    def test_hard_finite_feeds_gamma(self, monkeypatch):
        built = dispatch(["hard", "finite", "--p", "2", "--n", "2", "--t", "1"])
        assert built.exit_code == 0
        assert built.payload["provenance"]["construction"] == "finite-field"
        blob = json.dumps(built.payload)
        gamma = run(["ssdim", "gamma", "--t", "1"], blob, monkeypatch)
        assert gamma.exit_code == 0
        assert gamma.payload["value"] == 4

    def test_hard_trivial_feeds_sigma(self, monkeypatch):
        built = dispatch(["hard", "trivial", "--n", "2"])
        blob = json.dumps(built.payload)
        sigma = run(["ssdim", "sigma", "--t", "1"], blob, monkeypatch)
        assert sigma.payload["value"] == 15

    def test_amplify(self, monkeypatch):
        built = dispatch(["hard", "trivial", "--n", "2"])
        blob = json.dumps(built.payload)
        amplified = run(["hard", "amplify", "--m", "2"], blob, monkeypatch)
        assert amplified.exit_code == 0
        assert amplified.payload["rows"] == 4

    def test_quasipoly(self):
        result = dispatch(["hard", "quasipoly", "--n", "4", "--c", "1"])
        assert result.exit_code == 0
        assert result.payload["provenance"]["parameters"]["k"] == 2

    def test_trivial_at_its_cap(self):
        # entries up to 2^(2^19), 157,827 digits: past the int/str digit limit
        built = dispatch(["hard", "trivial", "--n", "4"])
        assert built.exit_code == 0
        assert matrix_from_json(built.payload) == trivial_hard(4).matrix
        block = dispatch(["hard", "quasipoly", "--n", "4", "--c", "2"])
        assert block.exit_code == 0
        assert block.payload["provenance"]["parameters"]["k"] == 4
        assert block.payload["entries"] == built.payload["entries"]


class TestSsdimCommands:
    def test_bound_fixed_precision_digits(self):
        result = dispatch(
            ["ssdim", "bound", "--s", "2", "--d", "2", "--t", "1", "--n", "2"]
        )
        assert result.exit_code == 0
        assert result.payload["log2_gamma_lower"] == "2.000000000000"
        frac = result.payload["log2_gamma_upper"].split(".")[1]
        assert len(frac) == 12

    def test_certify(self):
        result = dispatch(["ssdim", "certify", "--n", "1000", "--d", "2", "--t", "100"])
        assert result.exit_code == 0
        assert result.payload["s_star"] > 200

    def test_gamma_on_prime_field_matrix(self, monkeypatch):
        blob = json.dumps(matrix_to_json(identity(prime_field(5), 2)))
        result = run(["ssdim", "gamma", "--t", "1"], blob, monkeypatch)
        assert result.payload["value"] == 1


class TestHittingCommands:
    def test_vand(self):
        result = dispatch(["hitting", "vand", "--n", "3", "--s", "2"])
        assert result.payload["vectors"] == [["1", "1", "1"], ["1", "2", "4"]]

    def test_rs_feeds_kernelweight(self, monkeypatch):
        gen = dispatch(["hitting", "rs", "--q", "5", "--k", "2"])
        assert gen.exit_code == 0
        blob = json.dumps(gen.payload)
        weight = run(["hitting", "kernelweight"], blob, monkeypatch)
        assert weight.payload == {"min_weight": 3, "kernel_is_zero": False}

    def test_kernelweight_zero_kernel(self, monkeypatch):
        blob = json.dumps(matrix_to_json(identity(prime_field(5), 3)))
        result = run(["hitting", "kernelweight"], blob, monkeypatch)
        assert result.payload == {"min_weight": None, "kernel_is_zero": True}

    def test_hit(self, monkeypatch):
        blob = json.dumps(matrix_to_json(identity(prime_field(5), 2)))
        result = run(
            ["hitting", "hit", "--a", '["1","0"]', "--b", '["1","0"]'],
            blob,
            monkeypatch,
        )
        assert result.payload == {"value": "1"}


class TestPsdCommands:
    def test_build_payload(self):
        result = dispatch(["psd", "build", "--n", "2"])
        assert result.exit_code == 0
        assert result.payload["m"]["entries"] == ["1/1", "-1/1", "-1/1", "1/1"]
        assert result.payload["probe_count"] == 1

    def test_build_then_refute_sym_with_gram_factor(self, tmp_path):
        built = dispatch(["psd", "build", "--n", "4"])
        path = tmp_path / "mtilde.json"
        path.write_text(json.dumps(built.payload["mtilde"]))
        verdict = dispatch(["psd", "refute-sym", "--n", "4", "--b", str(path)])
        assert verdict.exit_code == 0
        assert verdict.payload["kind"] == "sparsity-at-least-quarter"

    def test_refute_inv(self, tmp_path):
        built = dispatch(["psd", "build", "--n", "2"])
        b_path = tmp_path / "b.json"
        b_path.write_text(json.dumps(matrix_to_json(identity(prime_field(5), 2))))
        # wrong field: domain error
        bad = dispatch(
            [
                "psd",
                "refute-inv",
                "--n",
                "2",
                "--b",
                str(b_path),
                "--c",
                str(b_path),
                "--side",
                "left-invertible",
            ]
        )
        assert bad.exit_code == 1
        m_path = tmp_path / "m.json"
        i_path = tmp_path / "i.json"
        m_path.write_text(json.dumps(built.payload["m"]))
        from hardmat.fields import RATIONAL_FIELD

        i_path.write_text(json.dumps(matrix_to_json(identity(RATIONAL_FIELD, 2))))
        good = dispatch(
            [
                "psd",
                "refute-inv",
                "--n",
                "2",
                "--b",
                str(i_path),
                "--c",
                str(m_path),
                "--side",
                "left-invertible",
            ]
        )
        assert good.exit_code == 0
        assert good.payload["kind"] == "sparsity-at-least-quarter"


class TestCircuitCommands:
    ID_SLC = "field prime 2\nlayer 2 2\n1 1 1\n2 2 1\nend\nlayer 2 2\n1 1 1\n2 2 1\nend\n"

    def test_parse_summary(self, monkeypatch):
        result = run(["circuit", "parse"], self.ID_SLC, monkeypatch)
        assert result.payload == {
            "field": {"kind": "prime", "p": 2},
            "depth": 2,
            "size": 4,
            "layers": [[2, 2], [2, 2]],
        }

    def test_verify(self, tmp_path):
        target = tmp_path / "id2.json"
        target.write_text(json.dumps(matrix_to_json(identity(prime_field(2), 2))))
        circuit = tmp_path / "id.slc"
        circuit.write_text(self.ID_SLC)
        result = dispatch(
            ["circuit", "verify", "--target", str(target), "--circuit", str(circuit)]
        )
        assert result.exit_code == 0
        assert result.payload == {"equal": True, "size": 4}

    def test_emit_canonicalizes(self, monkeypatch, tmp_path):
        shuffled = "field prime 2\nlayer 2 2\n2 2 1\n1 1 1\nend\n"
        out_path = tmp_path / "canon.slc"
        result = run(
            ["circuit", "emit", "--out", str(out_path)], shuffled, monkeypatch
        )
        assert result.exit_code == 0
        assert result.payload["slc"] == "field prime 2\nlayer 2 2\n1 1 1\n2 2 1\nend\n"
        assert out_path.read_text() == result.payload["slc"]


class TestSearchCommand:
    def test_identity_search(self, monkeypatch):
        blob = json.dumps(matrix_to_json(identity(prime_field(2), 2)))
        result = run(["search", "--s-max", "6"], blob, monkeypatch)
        assert result.exit_code == 0
        assert result.payload["status"] == "found"
        assert result.payload["s_min"] == 4
        assert result.payload["m_max"] == 2
        assert "layer" in result.payload["witness"]

    def test_budget_exit(self, monkeypatch):
        blob = json.dumps(
            matrix_to_json(
                matrix_from_json(
                    {
                        "field": {"kind": "prime", "p": 2},
                        "rows": 2,
                        "cols": 2,
                        "entries": ["1", "1", "0", "1"],
                    }
                )
            )
        )
        result = run(["search", "--s-max", "8", "--budget", "2"], blob, monkeypatch)
        assert result.exit_code == 3


class TestBudgetEnv:
    def test_env_var_overrides_enumeration_budget(self, monkeypatch):
        from hardmat.budgets import enumeration_budget

        monkeypatch.setenv("HARDMAT_BUDGET", "10")
        assert enumeration_budget() == 10
        blob = json.dumps(matrix_to_json(identity(prime_field(2), 4)))
        result = run(["ssdim", "gamma", "--t", "3"], blob, monkeypatch)
        assert result.exit_code == 3  # C(16, 3) = 560 > 10

    def test_explicit_flag_beats_env(self, monkeypatch):
        from hardmat.budgets import enumeration_budget

        monkeypatch.setenv("HARDMAT_BUDGET", "10")
        assert enumeration_budget(5000) == 5000

    def test_bad_env_value(self, monkeypatch):
        from hardmat.budgets import enumeration_budget

        monkeypatch.setenv("HARDMAT_BUDGET", "lots")
        with pytest.raises(ValueError):
            enumeration_budget()


class TestReadMatrix:
    def test_round_trip_via_file(self, tmp_path):
        m = identity(prime_field(7), 3)
        path = tmp_path / "m.json"
        path.write_text(json.dumps(matrix_to_json(m)))
        assert read_matrix(str(path)) == m

    def test_main_returns_exit_code(self, capsys):
        code = main(["sidon", "--n", "2", "--t", "1"])
        assert code == 0
        out = capsys.readouterr()
        assert json.loads(out.out) == {"n": 2, "t": 1, "p": 5, "grid": [[1, 2], [4, 3]]}
        assert json.loads(out.err)["operation"] == "sidon"

"""CLI dispatch: payloads, exit codes, determinism, generator/verifier loops."""

import io
import json
import os
import random
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

from hardmat import budgets
from hardmat.cli import _COMMANDS, build_parser, dispatch, main, read_matrix
from hardmat.constructions import trivial_hard
from hardmat.fields import extension_field, prime_field
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

    def test_verify_accepts_decimal_strings(self, monkeypatch):
        result = run(["sidon", "--verify", "--t", "2"], '["1", "2", 4, "8"]', monkeypatch)
        assert result.payload == {"t": 2, "distinct": True}

    @pytest.mark.parametrize(
        "blob, where",
        [
            ("[1, 2.9, 4]", "array[1]"),  # was truncated to 2
            ("[true, 2, 4]", "array[0]"),  # was taken as 1
            ('["\u0663", 1, 2]', "array[0]"),  # ARABIC-INDIC DIGIT THREE, was 3
            ("[1e400, 2]", "array[0]"),  # was an OverflowError traceback
            ('{"grid": [[1, 2], [4.0, 3]]}', "grid[1][0]"),
            ('{"grid": [[1, 2], 3]}', "grid[1]"),
            ('{"grid": 5}', "grid"),  # was a TypeError traceback
            ("5", "expected a sidon JSON object or a plain array"),
        ],
    )
    def test_verify_rejects_non_integers(self, monkeypatch, blob, where):
        result = run(["sidon", "--verify", "--t", "1"], blob, monkeypatch)
        assert result.exit_code == 1
        assert result.payload["error"]["type"] == "domain"
        assert result.payload["error"]["message"].startswith(where)

    def test_budget_exit_code(self, monkeypatch):
        monkeypatch.setattr("hardmat.sidon.SIDON_PRIME_BUDGET", 20)
        result = dispatch(["sidon", "--n", "3", "--t", "2"])
        assert result.exit_code == 3
        assert result.payload["error"]["type"] == "budget"

    def test_missing_n(self):
        result = dispatch(["sidon", "--t", "1"])
        assert result.exit_code == 1

    def test_size_past_the_digit_limit_prints_in_full(self):
        result = dispatch(["sidon", "--n", "1" + "0" * 3000, "--t", "0"])
        assert result.exit_code == 1
        assert result.payload["error"] == {
            "type": "domain",
            "message": "t must lie in [1, 1" + "0" * 6000 + "], got 0",
        }

    @pytest.mark.parametrize("n, t", [(10**40, 10**40), (10**9, 10**9), (300, 45000)])
    def test_sum_count_stops_at_the_cap(self, n, t):
        start = time.perf_counter()
        result = dispatch(["sidon", "--n", str(n), "--t", str(t)])
        assert time.perf_counter() - start < 1
        assert result.exit_code == 3
        assert result.payload["error"] == {
            "type": "budget",
            "message": "the subset sums exceed the cap of 5000000",
        }


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
        assert result.payload["error"]["column"] == 5


class TestDeeplyNestedJson:
    """JSON nested past the decoder's recursion limit is a domain error
    with an error payload, at each of the CLI's JSON inputs."""

    DEEP = "[" * 5000

    def main_error(self, argv, stdin_text, monkeypatch, capsys):
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin_text))
        code = main(argv)
        return code, json.loads(capsys.readouterr().out)["error"]

    def test_matrix_input(self, monkeypatch, capsys):
        code, error = self.main_error(
            ["ssdim", "gamma", "--t", "1"], self.DEEP, monkeypatch, capsys
        )
        assert code == 1
        assert error == {
            "type": "domain",
            "message": "malformed matrix JSON: nested too deeply",
        }

    def test_hitting_vector_flag(self, monkeypatch, capsys):
        blob = json.dumps(matrix_to_json(identity(prime_field(5), 2)))
        argv = ["hitting", "hit", "--a", self.DEEP, "--b", '["1","0"]']
        code, error = self.main_error(argv, blob, monkeypatch, capsys)
        assert code == 1
        assert error == {
            "type": "domain",
            "message": "--a: malformed JSON: nested too deeply",
        }

    def test_sidon_verify_input(self, monkeypatch, capsys):
        code, error = self.main_error(
            ["sidon", "--t", "1", "--verify"], self.DEEP, monkeypatch, capsys
        )
        assert code == 1
        assert error == {
            "type": "domain",
            "message": "malformed sidon JSON: nested too deeply",
        }

    def test_sidon_verify_decode_error_is_prefixed(self, monkeypatch):
        result = run(["sidon", "--t", "1", "--verify"], "[1", monkeypatch)
        assert result.exit_code == 1
        assert result.payload["error"]["message"] == (
            "malformed sidon JSON: Expecting ',' delimiter: line 1 column 3 (char 2)"
        )


class TestOversizedInputs:
    """Inputs too large to read or to hold end in a JSON error payload."""

    def main_payload(self, argv, stdin_text, monkeypatch, capsys):
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin_text))
        code = main(argv)
        return code, json.loads(capsys.readouterr().out)["error"]

    def test_slc_integer_past_the_digit_limit_is_a_located_parse_error(
        self, monkeypatch, capsys
    ):
        text = "field prime " + "7" * 5000 + "\nlayer 1 1\nend\n"
        code, error = self.main_payload(["circuit", "parse"], text, monkeypatch, capsys)
        assert code == 1
        assert (error["type"], error["line"], error["column"]) == ("parse", 1, 13)

    @pytest.mark.parametrize(
        "field, entry, prefix",
        [
            ({"kind": "prime", "p": "7" * 5000}, "1", ""),
            ({"kind": "prime", "p": "7"}, "7" * 5000, "entry 0: "),
        ],
        ids=["descriptor", "entry"],
    )
    def test_matrix_integer_past_the_digit_limit_names_the_limit(
        self, monkeypatch, capsys, field, entry, prefix
    ):
        blob = json.dumps({"field": field, "rows": 1, "cols": 1, "entries": [entry]})
        argv = ["hitting", "kernelweight"]
        code, error = self.main_payload(argv, blob, monkeypatch, capsys)
        assert code == 1
        assert error == {
            "type": "domain",
            "message": f"{prefix}integer has 5000 digits, more than the limit of 4300",
        }

    def test_slc_layer_past_the_budget_is_refused_before_allocating(
        self, monkeypatch, capsys
    ):
        text = "field prime 5\nlayer 1000000000000 1\nend\n"
        code, error = self.main_payload(["circuit", "parse"], text, monkeypatch, capsys)
        assert code == 3
        assert error["type"] == "budget"
        assert error["message"].startswith("line 2:")

    def test_slc_layers_share_one_budget(self, monkeypatch, capsys):
        monkeypatch.setattr(budgets, "DEFAULT_ENUMERATION_BUDGET", 10)
        text = "field prime 5\nlayer 3 3\nend\nlayer 3 3\nend\n"
        code, error = self.main_payload(["circuit", "parse"], text, monkeypatch, capsys)
        assert code == 3
        assert error["message"].startswith("line 4:")

    def test_amplify_past_the_budget_is_refused_before_allocating(
        self, monkeypatch, capsys
    ):
        blob = json.dumps(dispatch(["hard", "trivial", "--n", "2"]).payload)
        argv = ["hard", "amplify", "--m", "10000000"]  # 4 * 10^14 entries
        code, error = self.main_payload(argv, blob, monkeypatch, capsys)
        assert code == 3
        assert error["type"] == "budget"

    def test_rs_generator_past_the_budget_is_refused_before_allocating(
        self, monkeypatch, capsys
    ):
        monkeypatch.setattr(budgets, "DEFAULT_ENUMERATION_BUDGET", 10)
        assert main(["hitting", "rs", "--q", "5", "--k", "2"]) == 0  # 10 entries
        capsys.readouterr()
        code, error = self.main_payload(
            ["hitting", "rs", "--q", "5", "--k", "3"], "", monkeypatch, capsys
        )
        assert code == 3
        assert error == {
            "type": "budget",
            "message": "5 x 3 Reed-Solomon generator entries exceed the budget "
            "of 10 dense entries",
        }
        monkeypatch.undo()
        code, error = self.main_payload(
            ["hitting", "rs", "--q", "1000003", "--k", "4"], "", monkeypatch, capsys
        )
        assert (code, error["type"]) == (3, "budget")


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

    @pytest.mark.parametrize("c", ["50", "1000"])
    def test_quasipoly_large_c_is_domain_error(self, c):
        # --c 50 used to scan ~4e20 candidates, --c 1000 to overflow a float
        result = dispatch(["hard", "quasipoly", "--n", "6", "--c", c])
        assert result.exit_code == 1
        assert result.payload["error"]["type"] == "domain"

    @pytest.mark.parametrize("c", ["inf", "-inf", "nan", "abc"])
    def test_quasipoly_non_finite_c_is_usage_error(self, c, capsys):
        assert main(["hard", "quasipoly", "--n", "6", f"--c={c}"]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert "invalid finite float value" in out.err

    def test_hard_integers_through_main(self, capsys):
        assert main(["hard", "integers", "--n", "2", "--t", "1"]) == 0
        assert capsys.readouterr().out == (
            '{"provenance":{"construction":"integer","parameters":{"n":2,"t":1}},'
            '"field":{"kind":"integer-ring"},"rows":2,"cols":2,'
            '"entries":["2","4","16","8"]}\n'
        )

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

    @pytest.mark.parametrize(
        "d, t, message",
        [
            ("0", "5", "d must be a positive integer"),
            ("2", "0", "t must be a positive integer"),
            ("-2", "0", "d must be a positive integer"),
        ],
    )
    def test_certify_names_the_parameter_it_refuses(self, capsys, d, t, message):
        assert main(["ssdim", "certify", "--n", "1000", "--d", d, "--t", t]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert [json.loads(line) for line in lines] == [
            {"error": {"type": "domain", "message": message}}
        ]

    def test_certify_refuses_past_the_bit_cap(self, capsys):
        argv = ["ssdim", "certify", "--n", str(10**2200), "--d", "1", "--t", "1"]
        assert main(argv) == 3
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0]) == {
            "error": {
                "type": "budget",
                "message": "n^2 * (d*t)^d takes up to 14619 bits, "
                "past the certify cap of 4096",
            }
        }

    @pytest.mark.parametrize(
        "big, digits",
        [(10**9, 735324505), (10**40, 31735324598)],
        ids=["was-InvalidOperation", "was-MemoryError"],
    )
    def test_bound_refuses_a_sigma_bound_past_a_million_digits(self, capsys, big, digits):
        argv = ["ssdim", "bound", "--s", str(big), "--d", "1", "--t", str(10**9), "--n", str(big)]
        assert main(argv) == 3
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0]) == {
            "error": {
                "type": "budget",
                "message": f"log2_sigma_upper has {digits} integer digits, "
                "past the budget of 1000000",
            }
        }

    def test_bound_sigma_digit_boundary(self):
        def bound(t):
            return dispatch(
                ["ssdim", "bound", "--s", str(t), "--d", "1", "--t", str(t), "--n", "3000"]
            )

        printed = bound(1_359_800)
        assert printed.exit_code == 0
        whole, frac = printed.payload["log2_sigma_upper"].split(".")
        assert whole == "9057110853775438876207254711281228775911" + "0" * 999_865
        assert frac == "0" * 12
        assert bound(1_360_000).payload["error"] == {
            "type": "budget",
            "message": "log2_sigma_upper has 1000053 integer digits, "
            "past the budget of 1000000",
        }

    def test_bound_message_prints_d_times_t_past_the_digit_limit(self):
        big = "1" + "0" * 4000
        argv = ["ssdim", "bound", "--s", "1", "--d", big, "--t", big, "--n", "5"]
        result = dispatch(argv)
        assert result.exit_code == 1
        assert result.payload["error"] == {
            "type": "domain",
            "message": "the bound requires s >= d*t, got s=1 < 1" + "0" * 8000,
        }

    def test_gamma_on_prime_field_matrix(self, monkeypatch):
        blob = json.dumps(matrix_to_json(identity(prime_field(5), 2)))
        result = run(["ssdim", "gamma", "--t", "1"], blob, monkeypatch)
        assert result.payload["value"] == 1


# z^1281 + the bits of 1649: the modulus `hard finite --p 2 --n 3 --t 2` finds.
GF2_1281 = extension_field(2, [1649 >> i & 1 for i in range(1281)] + [1])


def _past_extension_cap(degree: int) -> str:
    return (
        f"an extension of degree {degree} over F_2 takes {degree} bits per "
        "element, past the cap of 10241"
    )


class TestExtensionCaps:
    """Extensions past 10,241 bits per element, and gamma_t ranks past
    2.6 * 10^8 cell updates, exit 3 within a second: before the irreducible
    scan, the load-time re-check, or any product."""

    def refusal(self, argv, stdin_text, monkeypatch, capsys) -> str:
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin_text))
        start = time.perf_counter()
        assert main(argv) == 3
        assert time.perf_counter() - start < 1
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1
        error = json.loads(lines[0])["error"]
        assert error["type"] == "budget"
        return error["message"]

    @pytest.mark.parametrize(
        "args, message",
        [
            (
                "--p 3 --n 3 --t 3",
                "an extension of degree 7681 over F_3 takes 15362 bits per element, "
                "past the cap of 10241",
            ),
            ("--p 2 --n 7 --t 2", _past_extension_cap(215641)),
        ],
        ids=["p3-n3-t3", "p2-n7-t2"],
    )
    def test_hard_finite_past_the_cap(self, monkeypatch, capsys, args, message):
        argv = ["hard", "finite", *args.split()]
        assert self.refusal(argv, "", monkeypatch, capsys) == message

    def test_matrix_json_modulus_past_the_cap(self, monkeypatch, capsys):
        """z^10242 + 1 = (z^5121 + 1)^2 is refused by size, not re-checked."""
        field = {"kind": "extension", "p": 2, "modulus": ["1"] + ["0"] * 10241 + ["1"]}
        blob = json.dumps({"field": field, "rows": 1, "cols": 1, "entries": [["1"]]})
        message = self.refusal(["ssdim", "gamma", "--t", "1"], blob, monkeypatch, capsys)
        assert message == _past_extension_cap(10242)

    def test_slc_header_modulus_past_the_cap(self, monkeypatch, capsys):
        text = "field ext 2 1" + " 0" * 10241 + " 1\nlayer 1 1\nend\n"
        message = self.refusal(["circuit", "parse"], text, monkeypatch, capsys)
        assert message == _past_extension_cap(10242)

    @pytest.mark.parametrize("source", ["json", "slc"])
    def test_cap_is_inclusive(self, monkeypatch, source):
        """At 10,241 bits the modulus is re-checked: z^10241 + 1 has the
        factor z + 1."""
        coeffs = ["1"] + ["0"] * 10240 + ["1"]
        message = "extension modulus is not irreducible"
        if source == "json":
            field = {"kind": "extension", "p": 2, "modulus": coeffs}
            stdin = json.dumps({"field": field, "rows": 1, "cols": 1, "entries": [[]]})
            argv = ["ssdim", "gamma", "--t", "1"]
        else:
            stdin = "field ext 2 " + " ".join(coeffs) + "\nlayer 1 1\nend\n"
            argv, message = ["circuit", "parse"], "line 1, col 11: " + message
        result = run(argv, stdin, monkeypatch)
        assert result.exit_code == 1
        assert result.payload["error"]["message"] == message

    def test_gamma_rank_past_the_cap(self, monkeypatch, capsys):
        """A dense 6 x 6 matrix over F_2[z]/(g), deg g = 1281: t = 2 ranks
        630 products (~9 s), t = 3 would rank 7140 (~7 min)."""
        rng = random.Random(0)
        entries = [[str(rng.randrange(2)) for _ in range(1281)] for _ in range(36)]
        blob = json.dumps({**matrix_to_json(identity(GF2_1281, 6)), "entries": entries})
        message = self.refusal(["ssdim", "gamma", "--t", "3"], blob, monkeypatch, capsys)
        assert message == (
            "the rank of 7140 products of 1281 coefficients takes up to "
            "10664605539 cell updates, past the cap of 260000000"
        )


class TestBinomialScan:
    """At a large prime the irreducible scan's first p candidates are the
    binomials z^d + c, each decided at once by Capelli's criterion.  No
    z^41 + c is irreducible when 41 does not divide p - 1; each used to cost
    a Ben-Or test (~22 ms at p = 2^31 - 1, ~6 h to the refusal)."""

    def test_refusal_at_2_31_minus_1(self, capsys):
        start = time.perf_counter()
        assert main(["hard", "finite", "--p", "2147483647", "--n", "2", "--t", "1"]) == 3
        assert time.perf_counter() - start < 2
        assert json.loads(capsys.readouterr().out) == {
            "error": {
                "type": "budget",
                "message": "no irreducible of degree 41 over F_2147483647 "
                "within 1000000 candidates",
            }
        }

    def test_first_irreducible_past_the_binomials(self):
        start = time.perf_counter()
        result = dispatch(["hard", "finite", "--p", "65521", "--n", "2", "--t", "1"])
        assert time.perf_counter() - start < 3
        assert result.exit_code == 0
        # scan index 65585 = 65521 + 64: z^41 + z + 64
        assert result.payload["field"]["modulus"] == ["64", "1"] + ["0"] * 39 + ["1"]


class TestHittingCommands:
    def test_vand_charge_past_the_digit_limit_is_a_budget_refusal(self):
        big = str(10**2500)
        assert dispatch(["hitting", "vand", "--n", big, "--s", big]).exit_code == 3
        n = 2**8000 - 1  # the bit lengths of 1..n sum to 7999 * 2^8000 + 1
        digits = n * n + 30103 * (n * (n - 1) // 2) * (7999 * 2**8000 + 1) // 100000
        result = dispatch(["hitting", "vand", "--n", str(n), "--s", str(n)])
        assert result.exit_code == 3
        assert result.payload["error"] == {
            "type": "budget",
            "message": f"{n} Vandermonde probe vectors of length {n} take up to "
            f"{budgets._decimal(digits)} printed digits, past the budget of 1000000",
        }

    def test_hit_names_a_bad_vector_element(self, monkeypatch):
        blob = json.dumps(matrix_to_json(identity(prime_field(5), 1)))
        argv = ["hitting", "hit", "--a", '["x"]', "--b", '["1"]']
        result = run(argv, blob, monkeypatch)
        assert result.exit_code == 1
        assert result.payload["error"] == {
            "type": "domain",
            "message": "--a[0]: not a decimal integer: 'x'",
        }

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

    @pytest.mark.parametrize("kind, suffix", [("rational", "/1"), ("integer-ring", "")])
    def test_hit_prints_values_past_the_digit_limit(
        self, monkeypatch, capsys, kind, suffix
    ):
        nines = "9" * 4000
        blob = json.dumps(
            {"field": {"kind": kind}, "rows": 1, "cols": 1, "entries": [nines]}
        )
        monkeypatch.setattr(sys, "stdin", io.StringIO(blob))
        assert main(["hitting", "hit", "--a", f'["{nines}"]', "--b", '["1"]']) == 0
        value = json.loads(capsys.readouterr().out)["value"]
        assert value == "9" * 3999 + "8" + "0" * 3999 + "1" + suffix  # (10^4000 - 1)^2

    def test_vand_prints_entries_past_the_digit_limit(self, monkeypatch):
        monkeypatch.setattr(budgets, "DEFAULT_ENUMERATION_BUDGET", 100_000_000)
        result = dispatch(["hitting", "vand", "--n", "14400", "--s", "2"])
        assert result.exit_code == 0
        last = result.payload["vectors"][1][-1]  # 2^14399, 4335 digits
        assert len(last) == 4335
        assert int(last[:4000]) * 10**335 + int(last[4000:]) == 2**14399

    @pytest.mark.parametrize(
        "a, b, flag",
        [("5", '["1","0"]', "--a"), ('["1","0"]', '{"x": 1}', "--b"), ("[1", "[]", "--a")],
    )
    def test_hit_rejects_a_non_array_flag(self, monkeypatch, a, b, flag):
        blob = json.dumps(matrix_to_json(identity(prime_field(5), 2)))
        result = run(["hitting", "hit", "--a", a, "--b", b], blob, monkeypatch)
        assert result.exit_code == 1
        assert result.payload["error"]["type"] == "domain"
        assert result.payload["error"]["message"].startswith(flag)


class TestPsdCommands:
    def test_verdict_payload_keeps_every_set_field(self, monkeypatch, tmp_path, capsys):
        """Fields in record order, unset ones (None, "") left out, a zero kept
        and the value encoded as a rational.  No genuine pair yields a value,
        so the refuter is replaced here."""
        from fractions import Fraction

        from hardmat import hitting
        from hardmat.fields import RATIONAL_FIELD

        verdict = hitting.RefutationVerdict(
            "contradiction-witness", 1, sparsity=0, witness_entry=(1, 2),
            witness_index=1, witness_output=2, value=Fraction(-3, 2), detail="d",
        )
        monkeypatch.setattr(hitting, "refute_symmetric", lambda b, pair: verdict)
        path = tmp_path / "b.json"
        path.write_text(json.dumps(matrix_to_json(identity(RATIONAL_FIELD, 2))))
        assert main(["psd", "refute-sym", "--n", "2", "--b", str(path)]) == 0
        assert capsys.readouterr().out == (
            '{"kind":"contradiction-witness","bound":1,"sparsity":0,'
            '"witness_entry":[1,2],"witness_index":1,"witness_output":2,'
            '"value":"-3/2","detail":"d"}\n'
        )

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

    def test_verify_names_the_first_mismatch(self, tmp_path):
        target = tmp_path / "id2.json"
        target.write_text(json.dumps(matrix_to_json(identity(prime_field(2), 2))))
        circuit = tmp_path / "upper.slc"
        circuit.write_text("field prime 2\nlayer 2 2\n1 1 1\n1 2 1\n2 2 1\nend\n")
        result = dispatch(
            ["circuit", "verify", "--target", str(target), "--circuit", str(circuit)]
        )
        assert result.exit_code == 0
        assert result.payload == {"equal": False, "size": 3, "mismatch": [1, 2]}

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

    def test_s_max_past_every_support_size(self, monkeypatch):
        """rank 4 > m_max: no support of any size factors the target."""
        blob = json.dumps(matrix_to_json(identity(prime_field(2), 4)))
        argv = ["search", "--m-max", "1", "--s-max", str(10**18)]
        start = time.perf_counter()
        result = run(argv, blob, monkeypatch)
        assert time.perf_counter() - start < 1
        assert result.exit_code == 0
        payload = result.payload
        assert (payload["status"], payload["nodes"]) == ("none", 0)
        assert payload["s_max"] == 10**18


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


class TestImportFootprint:
    """Each subcommand imports only the modules it runs."""

    LAYERS = {
        "hardmat.circuits",
        "hardmat.constructions",
        "hardmat.fields",
        "hardmat.fppoly",
        "hardmat.hitting",
        "hardmat.matrices",
        "hardmat.sidon",
        "hardmat.ssdim",
    }
    SCRIPT = (
        "import contextlib, io, json, sys\n"
        "from hardmat.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()), "
        "contextlib.redirect_stderr(io.StringIO()):\n"
        "    try:\n"
        "        code = main(sys.argv[1:])\n"
        "    except SystemExit as exc:\n"
        "        code = exc.code\n"
        "print(json.dumps({'code': code, 'modules': sorted(sys.modules)}))\n"
    )

    def loaded(self, argv, stdin_text="", code=0):
        out = subprocess.run(
            [sys.executable, "-c", self.SCRIPT, *argv],
            input=stdin_text,
            capture_output=True,
            text=True,
            check=True,
        )
        result = json.loads(out.stdout)
        assert result["code"] == code
        return set(result["modules"])

    def test_help_loads_no_layer_and_no_mpmath(self):
        modules = self.loaded(["--help"])
        assert not modules & self.LAYERS
        assert "mpmath" not in modules
        assert "hardmat.budgets" not in modules

    def test_sidon_loads_neither_fields_nor_fppoly(self):
        modules = self.loaded(["sidon", "--n", "2", "--t", "1"])
        assert "hardmat.sidon" in modules
        assert not modules & {"hardmat.fields", "hardmat.fppoly", "dataclasses"}

    @pytest.mark.parametrize(
        "argv",
        [["psd", "build", "--n", "2"], ["hitting", "rs", "--q", "5", "--k", "2"]],
    )
    def test_prime_and_rational_calls_load_no_fppoly(self, argv):
        modules = self.loaded(argv)
        assert "hardmat.fields" in modules
        assert not modules & {"hardmat.fppoly", "dataclasses"}

    def test_search_over_f2_loads_no_fppoly(self):
        blob = json.dumps(matrix_to_json(identity(prime_field(2), 2)))
        modules = self.loaded(["search", "--s-max", "4"], blob)
        assert "hardmat.circuits" in modules
        assert not modules & {"hardmat.fppoly", "dataclasses", "fractions"}

    @pytest.mark.parametrize(
        "argv",
        [
            ["hitting", "rs", "--q", "5", "--k", "2"],
            ["hard", "finite", "--p", "2", "--n", "2", "--t", "1"],
        ],
    )
    def test_calls_without_rationals_load_no_fractions(self, argv):
        modules = self.loaded(argv)
        assert "hardmat.fields" in modules
        assert "fractions" not in modules

    def test_psd_build_loads_fractions(self):
        modules = self.loaded(["psd", "build", "--n", "2"])
        assert "fractions" in modules

    def test_gamma_over_an_extension_loads_fppoly(self):
        gf4 = extension_field(2, (1, 1, 1))
        blob = json.dumps(matrix_to_json(identity(gf4, 2)))
        modules = self.loaded(["ssdim", "gamma", "--t", "1"], blob)
        assert "hardmat.fppoly" in modules
        assert "dataclasses" not in modules

    def test_domain_error_loads_no_circuits(self):
        modules = self.loaded(["hard", "quasipoly", "--n", "3", "--c", "1000"], code=1)
        assert "hardmat.constructions" in modules
        assert "hardmat.circuits" not in modules

    def test_sidon_loads_no_mpmath(self):
        modules = self.loaded(["sidon", "--n", "2", "--t", "1"])
        assert "hardmat.sidon" in modules
        assert "mpmath" not in modules
        assert "hardmat.ssdim" not in modules

    def test_gamma_loads_no_mpmath(self):
        blob = json.dumps(matrix_to_json(identity(prime_field(5), 2)))
        modules = self.loaded(["ssdim", "gamma", "--t", "1"], blob)
        assert "hardmat.ssdim" in modules
        assert not modules & {"mpmath", "hardmat.fppoly", "dataclasses"}

    def test_certify_loads_no_mpmath(self):
        modules = self.loaded(["ssdim", "certify", "--n", "1000", "--d", "2", "--t", "100"])
        assert "hardmat.ssdim" in modules
        assert not modules & {"mpmath", "dataclasses"}

    @pytest.mark.parametrize(
        "argv",
        [
            ["ssdim", "certify", "--n", "1000", "--d", "2", "--t", "100"],
            ["ssdim", "bound", "--s", "100", "--d", "2", "--t", "3", "--n", "10"],
        ],
    )
    def test_certify_and_bound_load_neither_fields_nor_matrices(self, argv):
        modules = self.loaded(argv)
        assert "hardmat.ssdim" in modules
        assert not modules & {"hardmat.fields", "hardmat.matrices"}

    def test_bound_loads_no_mpmath(self):
        modules = self.loaded(["ssdim", "bound", "--s", "100", "--d", "2", "--t", "3", "--n", "10"])
        assert "hardmat.ssdim" in modules
        assert "mpmath" not in modules


class TestStandardLibraryOnly:
    """One call of each subcommand the benchmark's ``surface`` workload runs,
    in an interpreter started with ``-I -S``: no site-packages and no
    environment, only ``src`` added to ``sys.path``."""

    # (argv, file in the call directory that keeps its stdout); {tmp} is
    # that directory.
    CALLS = [
        ("sidon --n 2 --t 1", "sidon.json"),
        ("sidon --t 1 --verify --in {tmp}/sidon.json", None),
        ("hard finite --p 2 --n 2 --t 1", "finite.json"),
        ("hard integers --n 3 --t 2", None),
        ("hard trivial --n 2", "trivial.json"),
        ("hard quasipoly --n 6 --c 1", None),
        ("hard amplify --m 3 --in {tmp}/finite.json", None),
        ("ssdim gamma --t 1 --in {tmp}/finite.json", None),
        ("ssdim sigma --t 2 --in {tmp}/trivial.json", None),
        ("ssdim bound --s 100 --d 2 --t 3 --n 10", None),
        ("ssdim certify --n 1000000 --d 2 --t 31623", None),
        ("hitting vand --n 6 --s 3", None),
        ("hitting rs --q 5 --k 2", "rs5.json"),
        ("hitting kernelweight --in {tmp}/rs5.json", None),
        ('hitting hit --a ["1","2","0","0","3"] --b ["2","3"] --in {tmp}/rs5.json', None),
        ("psd build --n 2", None),
        ("circuit parse --in {tmp}/id.slc", None),
        ("circuit verify --target {tmp}/id2.json --circuit {tmp}/id.slc", None),
        ("circuit emit --in {tmp}/id.slc", None),
        ("search --s-max 6 --in {tmp}/id2.json", None),
    ]
    SCRIPT = (
        "import contextlib, io, json, sys\n"
        "src, tmp, calls = sys.argv[1], sys.argv[2], json.loads(sys.argv[3])\n"
        "sys.path.insert(0, src)\n"
        "from hardmat.cli import main\n"
        "results = []\n"
        "for argv, keep in calls:\n"
        "    out = io.StringIO()\n"
        "    try:\n"
        "        with contextlib.redirect_stdout(out), "
        "contextlib.redirect_stderr(io.StringIO()):\n"
        "            code = main([a.format(tmp=tmp) for a in argv])\n"
        "    except Exception as exc:\n"
        "        code = type(exc).__name__\n"
        "    if keep:\n"
        "        with open(f'{tmp}/{keep}', 'w') as fh:\n"
        "            fh.write(out.getvalue())\n"
        "    results.append([' '.join(argv), code, 'mpmath' in sys.modules])\n"
        "print(json.dumps(results))\n"
    )

    def test_every_surface_call_runs_on_the_standard_library(self, tmp_path):
        (tmp_path / "id2.json").write_text(json.dumps(matrix_to_json(identity(prime_field(2), 2))))
        (tmp_path / "id.slc").write_text(
            "field prime 2\nlayer 2 2\n1 1 1\n2 2 1\nend\n"
            "layer 2 2\n1 1 1\n2 2 1\nend\n"
        )
        src = Path(__file__).resolve().parent.parent / "src"
        calls = [(argv.split(), keep) for argv, keep in self.CALLS]
        out = subprocess.run(
            [sys.executable, "-I", "-S", "-c", self.SCRIPT, str(src), str(tmp_path),
             json.dumps(calls)],
            capture_output=True,
            text=True,
            check=True,
        )
        results = json.loads(out.stdout)
        assert results == [[argv, 0, False] for argv, _ in self.CALLS]


GOLDEN_CLI = json.loads((Path(__file__).parent / "cli_golden.json").read_text("utf-8"))

# One valid argv per command path.
VALID_ARGV = [
    "sidon --n 2 --t 1",
    "hard finite --p 2 --n 2 --t 1",
    "hard integers --n 2 --t 2",
    "hard trivial --n 2",
    "hard quasipoly --n 3 --c 1.5",
    "hard amplify --m 2 --in a.json",
    "ssdim gamma --t 2 --budget 5",
    "ssdim sigma --t 1",
    "ssdim bound --s 1 --d 2 --t 3 --n 4",
    "ssdim certify --n 10 --d 2 --t 3",
    "hitting vand --n 3 --s 2",
    "hitting rs --q 5 --k 2",
    "hitting kernelweight --budget 9",
    "hitting hit --a [] --b [] --in m.json",
    "psd build --n 2",
    "psd refute-sym --n 2 --b b.json",
    "psd refute-inv --n 2 --b b.json --c c.json --side left-invertible",
    "circuit parse",
    "circuit verify --target t.json --circuit c.slc",
    "circuit emit --out o.slc",
    "search --s-max 3 --m-max 2",
]


class TestParserBranch:
    """The parser built for one argv behaves as the parser of every command."""

    @pytest.mark.skipif(
        "%d.%d" % sys.version_info[:2] != GOLDEN_CLI["python"],
        reason="argparse's help layout differs between Python versions",
    )
    @pytest.mark.parametrize(
        "case",
        GOLDEN_CLI["cases"],
        ids=[" ".join(c["argv"]) or "(none)" for c in GOLDEN_CLI["cases"]],
    )
    def test_help_and_usage_errors_are_recorded_bytes(self, case, monkeypatch, capsys):
        monkeypatch.setenv("COLUMNS", str(GOLDEN_CLI["columns"]))
        code = main(list(case["argv"]))
        out = capsys.readouterr()
        expected = (case["code"], case["stdout"], case["stderr"])
        assert (code, out.out, out.err) == expected

    def test_every_command_path_has_a_valid_argv(self):
        leaves = {path for path, _, _, handler in _COMMANDS if handler is not None}
        paths = {argv.partition(" --")[0] for argv in VALID_ARGV}
        assert paths == leaves

    @pytest.mark.parametrize("argv", VALID_ARGV)
    def test_branch_parses_as_the_full_parser(self, argv):
        argv = argv.split()
        full = build_parser().parse_args(argv)
        assert vars(build_parser(argv).parse_args(argv)) == vars(full)


class TestHardExit:
    """Every entry point ends through cli.console_main: streams flushed, then
    os._exit without interpreter teardown, and no byte or status lost."""

    SIDON = ["sidon", "--n", "2", "--t", "1"]

    def hardmat(self, argv, module="hardmat", env=(), **kwargs):
        full_env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        full_env["COLUMNS"] = str(GOLDEN_CLI["columns"])
        full_env.update(env)
        cmd = [sys.executable, "-m", module, *argv]
        return subprocess.run(cmd, env=full_env, **kwargs)

    @pytest.mark.skipif(
        "%d.%d" % sys.version_info[:2] != GOLDEN_CLI["python"],
        reason="argparse's help layout differs between Python versions",
    )
    @pytest.mark.parametrize("module", ["hardmat", "hardmat.cli"])
    @pytest.mark.parametrize(
        "argv",
        [
            "sidon --n 2 --t 1",  # 0, payload
            "--help",  # 0, help
            "hard quasipoly --n 3 --c 1000",  # 1, domain error
            "--bogus",  # 2, usage error
            "hitting rs --q 1000003 --k 4",  # 3, budget
        ],
    )
    def test_each_exit_code_keeps_the_recorded_bytes(self, argv, module):
        case = next(c for c in GOLDEN_CLI["cases"] if c["argv"] == argv.split())
        proc = self.hardmat(argv.split(), module, capture_output=True, text=True)
        expected = (case["code"], case["stdout"], case["stderr"])
        assert (proc.returncode, proc.stdout, proc.stderr) == expected

    def test_closed_pipe_is_reported_by_the_interpreter(self):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = self.hardmat(self.SIDON, stdout=write_end, stderr=subprocess.PIPE, text=True)
        finally:
            os.close(write_end)
        assert proc.returncode == 120
        assert "Exception ignored" in proc.stderr
        assert "BrokenPipeError" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_closed_pipe_unbuffered_raises_in_print(self):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = self.hardmat(
                self.SIDON,
                env={"PYTHONUNBUFFERED": "1"},
                stdout=write_end,
                stderr=subprocess.PIPE,
                text=True,
            )
        finally:
            os.close(write_end)
        assert proc.returncode == 1
        assert "Traceback" in proc.stderr
        assert proc.stderr.endswith("BrokenPipeError: [Errno 32] Broken pipe\n")

    def test_stdout_closed_at_start_exits_zero(self):
        cmd = shlex.join([sys.executable, "-m", "hardmat", *self.SIDON]) + " >&-"
        proc = subprocess.run(cmd, shell=True, stderr=subprocess.PIPE, text=True)
        assert proc.returncode == 0
        assert proc.stderr.startswith('{"operation":"sidon",')

    def test_emit_out_writes_the_whole_file(self, tmp_path):
        # one 1 x 20000 layer: ~190 KB of text, past every stream buffer
        lines = "".join(f"1 {j} {1 + j % 4}\n" for j in range(1, 20001))
        src = tmp_path / "wide.slc"
        src.write_text(f"field prime 5\nlayer 1 20000\n{lines}end\n", encoding="utf-8")
        out = tmp_path / "out.slc"
        proc = self.hardmat(
            ["circuit", "emit", "--in", str(src), "--out", str(out)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        text = json.loads(proc.stdout)["slc"]
        assert len(text) > 150_000
        assert out.read_text(encoding="utf-8") == text

    def test_no_atexit_hook_runs_after_the_answer(self):
        script = (
            "import atexit, sys\n"
            "atexit.register(print, 'teardown ran', file=sys.stderr)\n"
            "sys.argv = ['hardmat', 'sidon', '--n', '2', '--t', '1']\n"
            "from hardmat.cli import console_main\n"
            "console_main()\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True
        )
        assert proc.returncode == 0
        assert proc.stdout == '{"n":2,"t":1,"p":5,"grid":[[1,2],[4,3]]}\n'
        assert "teardown ran" not in proc.stderr

    def test_console_script_ends_through_console_main(self):
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).parent.parent / "pyproject.toml"
        scripts = tomllib.loads(pyproject.read_text("utf-8"))["project"]["scripts"]
        assert scripts == {"hardmat": "hardmat.cli:console_main"}

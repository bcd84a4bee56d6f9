"""Every BudgetExceeded message, byte for byte: one row per capped surface.

Every cap is a constant in ``hardmat.budgets``; the only per-call override
is a ``budget=`` keyword.  A row whose cap cannot be reached at the shipped
constants, nor through a keyword, lowers the constant in a fresh
interpreter, before any layer module loads and reads it.
"""

import ast
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import hardmat
from hardmat.budgets import (
    CERTIFY_BITS_CAP,
    EXTENSION_SLOT_BITS_CAP,
    BudgetExceeded,
)
from hardmat.circuits import min_depth2_sparsity
from hardmat.fields import _charge_extension, prime_field
from hardmat.hitting import RSParams, min_kernel_weight, rs_generator
from hardmat.matrices import from_rows, identity
from hardmat.ssdim import certify_depth_d, pi_t

PSI13 = 3_317_044_064_679_887_385_961_981
POWERS_4X4 = "from_rows(INTEGER_RING, [[2 ** (4 * i + j) for j in range(4)] for i in range(4)])"

# (surface, budgets constants lowered, call, message)
ROWS = [
    ("sidon sum cap, verifier", {}, "verify_tsum_distinct(range(100), 5)",
     "75287520 subset sums exceed the cap of 5000000"),
    ("sidon sum cap, construction", {}, "construct_sidon(10, 5)",
     "75287520 subset sums exceed the cap of 5000000"),
    ("sidon sum count, verifier stopped early", {},
     "verify_tsum_distinct(range(1000), 500)", "the subset sums exceed the cap of 5000000"),
    ("sidon sum count, construction stopped early", {}, "construct_sidon(300, 45000)",
     "the subset sums exceed the cap of 5000000"),
    ("sidon prime search", {"SIDON_PRIME_BUDGET": 20}, "construct_sidon(3, 2)",
     "no admissible prime up to the budget 20 for n=3, t=2"),
    ("sidon prime scan sums", {"SIDON_SCAN_SUM_CAP": 1000}, "construct_sidon(4, 3)",
     "the prime scan for n=4, t=3 formed 1043 subset sums up to p=277, "
     "past the cap of 1000"),
    ("irreducible scan, F_2", {"IRREDUCIBLE_SCAN_BUDGET": 2}, "find_irreducible(2, 64)",
     "no irreducible of degree 64 over F_2 within 2 candidates"),
    ("irreducible scan, odd p", {"IRREDUCIBLE_SCAN_BUDGET": 2}, "find_irreducible(3, 64)",
     "no irreducible of degree 64 over F_3 within 2 candidates"),
    ("pi_t subsets", {}, "pi_t(identity(prime_field(2), 4), 3, budget=10)",
     "the subsets exceed the budget 10"),
    ("pi_t subsets, past the cap at the last factor", {},
     "pi_t(identity(prime_field(2), 4), 3, budget=559)",
     "560 subsets exceed the budget 559"),
    ("sigma_t values", {}, f"sigma_t({POWERS_4X4}, 2)",
     "29 distinct products exceed the subset-sum cap 22"),
    ("kernel vectors", {}, "min_kernel_weight(rs_generator(RSParams(11, 1)), budget=1000)",
     "kernel has 11^10 vectors, budget is 1000"),
    ("vandermonde digits", {}, "vandermonde_vectors(400, 400)",
     "400 Vandermonde probe vectors of length 400 take up to 74580757 printed "
     "digits, past the budget of 1000000"),
    ("psd side", {}, "build_hard_psd(66)",
     "n=66 exceeds the exact-solve cap 64"),
    ("trivial side", {}, "trivial_hard(5)",
     "n=5 exceeds the cap 4; entries would have 2^29 bits"),
    ("trivial side, quasipoly block", {}, "quasipoly_hard(10, 1)",
     "n=5 exceeds the cap 4; entries would have 2^29 bits"),
    ("integer exponent", {"MAX_EXPONENT_BITS": 4}, "hard_over_integers(2, 2)",
     "entry exponent 8 exceeds the bignum cap 4"),
    ("amplify", {}, "amplify_direct_sum(trivial_hard(2).matrix, 10**7)",
     "10000000 copies of a 2 x 2 block exceed the budget of 1000000 dense entries"),
    ("slc layers", {}, "parse_slc('field prime 5\\nlayer 1000000000000 1\\nend\\n')",
     "line 2: a 1000000000000 x 1 layer takes the circuit past the budget of "
     "1000000 dense entries"),
    ("circuit verify steps", {},
     "verify_factorization(CircuitFactorization(prime_field(2), ("
     "ExactMatrix(prime_field(2), 1000, 25, (1,) * 25000), "
     "ExactMatrix(prime_field(2), 25, 1000, (1,) * 25000))), "
     "ExactMatrix(prime_field(2), 1000, 1000, (0,) * 10**6))",
     "multiplying out layers 1 to 2 takes 26025000 steps, past the cap of 25000000"),
    ("search nodes", {}, "min_depth2_sparsity(identity(prime_field(2), 2), s_max=8, budget=2)",
     "search explored 3 support pairs; budget is 2"),
    ("primality", {}, f"is_prime({PSI13})",
     f"{PSI13} exceeds the primality bound {PSI13 - 1}"),
    ("certify bits", {}, "certify_depth_d(10**700, 1, 1)",
     "n^2 * (d*t)^d takes up to 4653 bits, past the certify cap of 4096"),
    ("sigma bound digits", {}, "bound_eval(1360000, 1, 1360000, 3000)",
     "log2_sigma_upper has 1000053 integer digits, past the budget of 1000000"),
    ("extension size, irreducible scan", {}, "find_irreducible(3, 7681)",
     "an extension of degree 7681 over F_3 takes 15362 bits per element, "
     "past the cap of 10241"),
    ("extension packed size, irreducible scan", {}, "find_irreducible(3, 1282)",
     "an extension of degree 1282 over F_3 takes 20512 packed bits per element, "
     "past the cap of 20496"),
    ("extension size, .slc header", {}, "parse_slc('field ext 2 1 ' + '0 ' * 10241 + '1')",
     "an extension of degree 10242 over F_2 takes 10242 bits per element, "
     "past the cap of 10241"),
    ("gamma_t rank", {},
     "gamma_t(identity(extension_field(2, [1649 >> i & 1 for i in range(1281)] + [1]), 6),"
     " 3, prime_field(2))",
     "the rank of 7140 products of 1281 coefficients takes up to 10664605539 cell "
     "updates, past the cap of 260000000"),
]

# The names a call may use.
PRELUDE = (
    "from hardmat import *\n"
    "from hardmat.matrices import from_rows, identity\n"
)


def message_in_fresh_interpreter(lowered: dict, call: str) -> str:
    script = (
        "import hardmat.budgets as budgets\n"
        f"for name, value in {lowered!r}.items():\n"
        "    setattr(budgets, name, value)\n"
        f"{PRELUDE}"
        "try:\n"
        f"    {call}\n"
        "except budgets.BudgetExceeded as exc:\n"
        "    print(exc, end='')\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, check=True
    )
    return out.stdout


@pytest.mark.parametrize(
    "lowered, call, message", [row[1:] for row in ROWS], ids=[row[0] for row in ROWS]
)
def test_budget_message(lowered, call, message):
    if lowered:
        assert message_in_fresh_interpreter(lowered, call) == message
        return
    namespace = {}
    exec(PRELUDE, namespace)
    with pytest.raises(BudgetExceeded) as info:
        eval(call, namespace)
    assert str(info.value) == message


class TestRefusalSemantics:
    """What a cap of 0 means, and where the search refuses."""

    @pytest.mark.parametrize(
        "call",
        [
            lambda: pi_t(identity(prime_field(2), 2), 1, budget=0),
            lambda: min_kernel_weight(rs_generator(RSParams(5, 2)), budget=0),
            lambda: min_depth2_sparsity(identity(prime_field(2), 2), budget=0),
        ],
        ids=["pi_t", "min_kernel_weight", "min_depth2_sparsity"],
    )
    def test_zero_budget_keyword_is_invalid(self, call):
        with pytest.raises(ValueError, match="^budget must be positive$"):
            call()

    def test_zero_kernel_answers_before_the_budget_is_read(self):
        assert min_kernel_weight(identity(prime_field(5), 3), budget=0) is None

    def test_search_names_pair_cap_plus_one_at_a_later_c_support(self):
        """The search refuses at the first tabled C support past the budget,
        here pair 16 at budget 12, and still names pair 13.  The bulk point
        (a B support's pairs) is pinned by test_oracle's test_smallest_budget."""
        target = from_rows(prime_field(2), [[0, 1], [1, 1]])
        message = "^search explored 13 support pairs; budget is 12$"
        with pytest.raises(BudgetExceeded, match=message):
            min_depth2_sparsity(target, 2, 8, budget=12)

    def test_packed_extension_cap_is_inclusive(self):
        # (3, 1281) has 16-bit slots: 1281 * 16 is the cap itself
        assert 1281 * 16 == EXTENSION_SLOT_BITS_CAP
        _charge_extension(3, 1281)

    def test_certify_cap_is_inclusive(self):
        n = 2**2045  # with d = 2, t = 1 the bound is 2 * 2046 + 2 * 2 bits
        assert 2 * n.bit_length() + 2 * 2 == CERTIFY_BITS_CAP
        assert certify_depth_d(n, 2, 1) > 0
        with pytest.raises(BudgetExceeded, match=" 4098 bits, "):
            certify_depth_d(2 * n, 2, 1)


def _refused_within(args: str, seconds: float, message: str):
    """``python -m hardmat <args>`` exits 3 within ``seconds`` with the budget
    error ``message``.  A subprocess, so that a traced test run times it
    untraced."""
    src = str(Path(hardmat.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    cmd = [sys.executable, "-m", "hardmat", *args.split()]
    start = time.perf_counter()
    out = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=seconds)
    assert time.perf_counter() - start < seconds
    assert out.returncode == 3
    assert json.loads(out.stdout) == {"error": {"type": "budget", "message": message}}


def test_sidon_scan_refuses_7_3_within_seconds():
    """(n, t) = (7, 3) finds no prime below 309,503 and used to scan until
    the prime budget (~46 s); the scan's sum cap refuses it in ~8 s (py3.11,
    one core)."""
    message = (
        "the prime scan for n=7, t=3 formed 30001213 subset sums "
        "up to p=309503, past the cap of 30000000"
    )
    _refused_within("sidon --n 7 --t 3", 30, message)


@pytest.mark.parametrize(
    "args, message",
    [
        ("hard finite --p 3 --n 22 --t 1",
         "an extension of degree 4901 over F_3 takes 78416 packed bits per element, "
         "past the cap of 20496"),
        ("hard finite --p 5 --n 17 --t 1",
         "an extension of degree 2921 over F_5 takes 93472 packed bits per element, "
         "past the cap of 20496"),
    ],
)
def test_odd_p_extension_refused_within_seconds(args, message):
    """Both pass the 10,241-bit cap and ran past 60 s before the packed-bits
    cap; each scans a Sidon grid and exits 3 at once."""
    _refused_within(args, 5, message)


def test_no_code_touches_the_int_digit_limit():
    """Integer text goes through budgets' split conversions, so no module
    reads or sets the interpreter's process-wide int/str digit limit: no
    name, attribute or string in the package names its accessors."""
    names = set()
    for path in Path(hardmat.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            name = getattr(node, "id", getattr(node, "attr", None))
            names.add(node.value if isinstance(node, ast.Constant) else name)
    assert "set_int_max_str_digits" not in names
    assert "get_int_max_str_digits" not in names


def test_budget_exceeded_is_raised_only_by_charge():
    """Every cap refuses through budgets.charge: no other code in the
    package constructs or raises BudgetExceeded."""
    found = []
    for path in sorted(Path(hardmat.__file__).parent.glob("*.py")):
        stack = [(ast.parse(path.read_text(encoding="utf-8")), None)]
        while stack:
            node, func = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                func = node.name
            target = node.func if isinstance(node, ast.Call) else None
            if isinstance(node, ast.Raise):
                target = node.exc
            name = getattr(target, "id", getattr(target, "attr", None))
            if name == "BudgetExceeded":
                found.append((path.stem, func))
            stack.extend((child, func) for child in ast.iter_child_nodes(node))
    assert found == [("budgets", "charge")]

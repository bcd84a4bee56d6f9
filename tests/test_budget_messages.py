"""Every BudgetExceeded message, byte for byte: one row per capped surface.

A row whose cap cannot be reached at the shipped constants lowers the
constant in ``hardmat.budgets`` in a fresh interpreter, before any layer
module loads and reads it.
"""

import os
import subprocess
import sys

import pytest

from hardmat.budgets import BudgetExceeded

PSI13 = 3_317_044_064_679_887_385_961_981
POWERS_4X4 = "from_rows(INTEGER_RING, [[2 ** (4 * i + j) for j in range(4)] for i in range(4)])"

# (surface, budgets constants lowered, call, message)
ROWS = [
    ("sidon sum cap, verifier", {}, "verify_tsum_distinct(range(100), 5)",
     "75287520 subset sums exceed the cap of 5000000"),
    ("sidon sum cap, construction", {}, "construct_sidon(10, 5)",
     "75287520 subset sums exceed the cap of 5000000"),
    ("sidon prime search", {}, "construct_sidon(3, 2, prime_budget=20)",
     "no admissible prime up to the budget 20 for n=3, t=2"),
    ("irreducible scan, F_2", {"IRREDUCIBLE_SCAN_BUDGET": 2}, "find_irreducible(2, 64)",
     "no irreducible of degree 64 over F_2 within 2 candidates"),
    ("irreducible scan, odd p", {"IRREDUCIBLE_SCAN_BUDGET": 2}, "find_irreducible(3, 64)",
     "no irreducible of degree 64 over F_3 within 2 candidates"),
    ("pi_t subsets", {}, "pi_t(identity(prime_field(2), 4), 3, budget=10)",
     "560 subsets exceed the budget 10"),
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
    ("search nodes", {}, "min_depth2_sparsity(identity(prime_field(2), 2), s_max=8, budget=2)",
     "search explored 3 support pairs; budget is 2"),
    ("primality", {}, f"is_prime({PSI13})",
     f"{PSI13} exceeds the primality bound {PSI13 - 1}"),
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
    env = {k: v for k, v in os.environ.items() if k != "HARDMAT_BUDGET"}
    out = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, check=True, env=env
    )
    return out.stdout


@pytest.mark.parametrize(
    "lowered, call, message", [row[1:] for row in ROWS], ids=[row[0] for row in ROWS]
)
def test_budget_message(lowered, call, message, monkeypatch):
    if lowered:
        assert message_in_fresh_interpreter(lowered, call) == message
        return
    monkeypatch.delenv("HARDMAT_BUDGET", raising=False)
    namespace = {}
    exec(PRELUDE, namespace)
    with pytest.raises(BudgetExceeded) as info:
        eval(call, namespace)
    assert str(info.value) == message


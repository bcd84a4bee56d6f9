"""The package's public names: lazy (PEP 562) exports from the submodules."""

import importlib
import inspect
import subprocess
import sys

import pytest

import hardmat

NAMES = [name for name in hardmat.__all__ if name != "__version__"]


def defining_module(name):
    """The one submodule whose ``__all__`` lists ``name``."""
    owners = [
        module
        for module in (
            "budgets", "circuits", "constructions", "fields",
            "hitting", "matrices", "sidon", "ssdim",
        )
        if name in importlib.import_module(f"hardmat.{module}").__all__
    ]
    assert len(owners) == 1, (name, owners)
    return importlib.import_module(f"hardmat.{owners[0]}")


# The parameters of every public callable: a record's fields, otherwise its
# signature (None: the class has no signature of its own).  A new, renamed or
# dropped keyword shows up here as a diff.
SIGNATURES = {
    "BudgetExceeded": None,
    "CircuitFactorization": "field, factors",
    "SearchResult": "s_min, witness, nodes, s_max, m_max",
    "SlcParseError": "message, line, column",
    "emit_slc": "circuit",
    "min_depth2_sparsity": "A, m_max, s_max, budget",
    "parse_slc": "text",
    "verify_factorization": "circuit, target",
    "ExponentMatrix": "n, t, exponents, max_degree, source",
    "HardMatrixBundle": "matrix, provenance, parameters",
    "amplify_direct_sum": "A, m",
    "hard_over_finite": "p, n, t",
    "hard_over_integers": "n, t",
    "quasipoly_hard": "n, c",
    "trivial_hard": "n",
    "univariate_hard": "n, t",
    "FieldDescriptor": "kind, p, modulus",
    "extension_field": "p, modulus",
    "field_arith": "a, b, op, field",
    "find_irreducible": "p, d",
    "is_prime": "n",
    "prime_field": "p",
    "HittingVectors": "field, n, s, vectors",
    "PsdPair": "n, mtilde, m, probes",
    "RefutationVerdict": (
        "kind, bound, sparsity, witness_entry, "
        "witness_index, witness_output, value, detail"
    ),
    "RSParams": "q, k",
    "build_hard_psd": "n",
    "hit_inner": "M, a, b",
    "min_kernel_weight": "G, budget",
    "refute_invertible": "Bfac, Cfac, side, pair",
    "refute_symmetric": "B, pair",
    "rs_generator": "params",
    "sparse_row_hit": "r, s, hv",
    "vandermonde_vectors": "n, s",
    "ExactMatrix": "field, rows, cols, entries",
    "SparsityReport": "total, row_counts, col_counts",
    "kronecker": "A, B",
    "matmul": "A, B",
    "rank": "A",
    "solve": "A, B",
    "sparsity": "A",
    "vandermonde": "field, nodes, k",
    "SidonSet": "n, t, p, grid",
    "construct_sidon": "n, t",
    "verify_tsum_distinct": "s, t",
    "BoundEvaluation": (
        "s, d, t, n, log2_gamma_upper, log2_sigma_upper, log2_gamma_lower"
    ),
    "ProductFamily": "t, values, subset_count",
    "bound_eval": "s, d, t, n",
    "certify_depth_d": "n, d, t",
    "gamma_t": "M, t, base, budget",
    "pi_t": "M, t, budget",
    "sigma_t": "M, t, budget",
}


def parameter_names(obj):
    fields = getattr(obj, "_fields", None)
    if fields is not None:
        return ", ".join(fields)
    try:
        return ", ".join(inspect.signature(obj).parameters)
    except ValueError:
        return None


def test_public_signatures_are_recorded():
    recorded = {
        name: parameter_names(getattr(hardmat, name))
        for name in NAMES
        if callable(getattr(hardmat, name))
    }
    assert recorded == SIGNATURES


@pytest.mark.parametrize("name", NAMES)
def test_name_is_the_submodule_object(name):
    assert getattr(hardmat, name) is getattr(defining_module(name), name)


def test_all_is_unique_and_starts_with_the_version():
    assert hardmat.__all__[0] == "__version__"
    assert len(set(hardmat.__all__)) == len(hardmat.__all__) == 55


def test_dir_lists_every_public_name():
    assert set(hardmat.__all__) <= set(dir(hardmat))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        hardmat.no_such_name
    assert not hasattr(hardmat, "no_such_name")


def test_from_imports_of_names_and_submodules():
    from hardmat import build_hard_psd, fields
    from hardmat.hitting import build_hard_psd as direct

    assert build_hard_psd is direct
    assert fields is importlib.import_module("hardmat.fields")


def test_star_import_in_a_fresh_interpreter():
    script = (
        "import sys\n"
        "from hardmat import *\n"
        "import hardmat\n"
        "missing = [n for n in hardmat.__all__ if n not in globals()]\n"
        "print(missing, 'mpmath' in sys.modules)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, check=True
    )
    # no hardmat module imports mpmath
    assert out.stdout.split() == ["[]", "False"]

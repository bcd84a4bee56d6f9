"""hardmat: explicit hard matrices for bounded-depth linear circuits.

Exact constructions of matrices that no shallow product of sparse matrices
can compute, the Shoup-Smolensky dimension machinery that certifies them,
hitting-set probes with a hard PSD instance, and a brute-force factorization
oracle for desk-scale ground truth.  Everything is exact arithmetic and
deterministic.

The public names below load their submodule on first access (PEP 562), so
``import hardmat`` and ``import hardmat.cli`` import no layer module.
"""

__version__ = "0.1.0"

# Submodule -> the public names it defines, in ``__all__`` order.
_PUBLIC = {
    "budgets": ("BudgetExceeded",),
    "circuits": (
        "CircuitFactorization",
        "SearchResult",
        "SlcParseError",
        "emit_slc",
        "min_depth2_sparsity",
        "parse_slc",
        "verify_factorization",
    ),
    "constructions": (
        "ExponentMatrix",
        "HardMatrixBundle",
        "amplify_direct_sum",
        "hard_over_finite",
        "hard_over_integers",
        "quasipoly_hard",
        "trivial_hard",
        "univariate_hard",
    ),
    "fields": (
        "INTEGER_RING",
        "RATIONAL_FIELD",
        "FieldDescriptor",
        "extension_field",
        "field_arith",
        "find_irreducible",
        "is_prime",
        "prime_field",
    ),
    "hitting": (
        "HittingVectors",
        "PsdPair",
        "RefutationVerdict",
        "RSParams",
        "build_hard_psd",
        "hit_inner",
        "min_kernel_weight",
        "refute_invertible",
        "refute_symmetric",
        "rs_generator",
        "sparse_row_hit",
        "vandermonde_vectors",
    ),
    "matrices": (
        "ExactMatrix",
        "SparsityReport",
        "kronecker",
        "matmul",
        "rank",
        "solve",
        "sparsity",
        "vandermonde",
    ),
    "sidon": ("SidonSet", "construct_sidon", "verify_tsum_distinct"),
    "ssdim": (
        "BoundEvaluation",
        "ProductFamily",
        "bound_eval",
        "certify_depth_d",
        "gamma_t",
        "pi_t",
        "sigma_t",
    ),
}

# Public name -> the submodule that defines it.
_SOURCE = {name: module for module, names in _PUBLIC.items() for name in names}

__all__ = ["__version__", *_SOURCE]


def __getattr__(name):
    module = _SOURCE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_SOURCE})

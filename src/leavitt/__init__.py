"""Exact symbolic computation in Cohn and Leavitt algebras, their matrix
rings, and the simplicity analysis of the associated Lie algebras.

The public names below are resolved on first use (PEP 562), so importing
the package loads none of its modules; `from leavitt import *` loads all.
"""

from importlib import import_module

__version__ = "0.1.0"

# Each submodule and the public names it defines, in `__all__` order.
_EXPORTS = {
    "coeffs": ("FieldSpec", "Scalar"),
    "cohn": (
        "Word",
        "Monomial",
        "CohnElement",
        "ideal_generator",
        "x_word",
        "y_word",
        "x_gen",
        "y_gen",
        "parse_element",
    ),
    "leavitt": (
        "LeavittElement",
        "RewriteStep",
        "normal_form",
        "normal_form_with_trace",
        "independence_check",
        "dim_probe",
    ),
    "matrix": ("MatrixElement", "unit", "identity_matrix", "matrix_from_strings"),
    "simplicity": (
        "Reason",
        "SimplicityVerdict",
        "BracketWitness",
        "is_simple",
        "build_witness",
        "verify_witness",
        "nontriviality_probe",
        "witness_to_doc",
        "witness_from_doc",
    ),
    "parser": ("ParseError", "SessionConfig", "parse", "print_expression", "evaluate"),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name):
    # The value is not stored here: every read goes to the submodule, so a
    # rebinding there (a test double, a tracer) is seen through the package.
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))

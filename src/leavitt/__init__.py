"""Exact symbolic computation in Cohn and Leavitt algebras, their matrix
rings, and the simplicity analysis of the associated Lie algebras."""

from .coeffs import FieldSpec, Scalar, parse_scalar
from .words import Word, random_word
from .cohn import (
    CohnElement,
    Monomial,
    ideal_generator,
    parse_element,
    random_element,
    x_gen,
    x_word,
    y_gen,
    y_word,
)
from .leavitt import (
    LeavittElement,
    RewriteStep,
    dim_probe,
    independence_check,
    normal_form,
    normal_form_with_trace,
)
from .matrix import MatrixElement, identity_matrix, matrix_from_strings, unit
from .simplicity import (
    BracketWitness,
    Reason,
    SimplicityVerdict,
    build_witness,
    is_simple,
    nontriviality_probe,
    verify_witness,
    witness_from_doc,
    witness_to_doc,
)
from .parser import ParseError, SessionConfig, evaluate, parse, print_expression

__version__ = "0.1.0"

__all__ = [
    "FieldSpec",
    "Scalar",
    "parse_scalar",
    "Word",
    "random_word",
    "Monomial",
    "CohnElement",
    "ideal_generator",
    "random_element",
    "x_word",
    "y_word",
    "x_gen",
    "y_gen",
    "parse_element",
    "LeavittElement",
    "RewriteStep",
    "normal_form",
    "normal_form_with_trace",
    "independence_check",
    "dim_probe",
    "MatrixElement",
    "unit",
    "identity_matrix",
    "matrix_from_strings",
    "Reason",
    "SimplicityVerdict",
    "BracketWitness",
    "is_simple",
    "build_witness",
    "verify_witness",
    "nontriviality_probe",
    "witness_to_doc",
    "witness_from_doc",
    "ParseError",
    "SessionConfig",
    "parse",
    "print_expression",
    "evaluate",
]

"""Deciding simplicity of the commutator Lie algebra of matrices over a
Leavitt algebra, and constructing explicit certificates.

For the d x d matrices over the Leavitt algebra of order n, the derived
Lie algebra (under [a, b] = ab - ba) is simple exactly when the field
characteristic divides n - 1 but not d.  Non-simplicity is always
certified constructively: a finite list of matrix pairs whose bracket-sum
is the identity.  In the simple case no such list can exist, because the
matrix trace (defined whenever the characteristic divides n - 1) kills
every bracket yet sends the identity to d * 1, which is nonzero there.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Dict, List, Tuple

from .coeffs import FieldSpec
from .leavitt import LeavittElement
from .matrix import MatrixElement, identity_matrix, matrix_from_strings, unit

__all__ = [
    "Reason",
    "SimplicityVerdict",
    "BracketWitness",
    "is_simple",
    "build_witness",
    "verify_witness",
    "nontriviality_probe",
    "witness_to_doc",
    "witness_from_doc",
]


class Reason(Enum):
    CHAR_DIVIDES_N1_AND_NOT_D = "CharDividesN1AndNotD"
    CHAR_NOT_DIVIDES_N1 = "CharNotDividesN1"
    CHAR_DIVIDES_D = "CharDividesD"


@dataclass(frozen=True)
class SimplicityVerdict:
    simple: bool
    reason: Reason
    spec: FieldSpec
    n: int
    d: int


@dataclass(frozen=True)
class BracketWitness:
    """Pairs (A_i, B_i) of matrices claimed to satisfy sum [A_i, B_i] = identity."""

    spec: FieldSpec
    n: int
    d: int
    pairs: Tuple[Tuple[MatrixElement, MatrixElement], ...]


def _validate_shape(n: int, d: int) -> None:
    if n < 2:
        raise ValueError(f"algebra order must be at least 2, got {n}")
    if d < 1:
        raise ValueError(f"matrix dimension must be at least 1, got {d}")


def is_simple(spec: FieldSpec, n: int, d: int) -> SimplicityVerdict:
    """Decide simplicity of the derived Lie algebra for this configuration."""
    _validate_shape(n, d)
    divides_n1 = spec.divides(n - 1)
    divides_d = spec.divides(d)
    if divides_n1 and not divides_d:
        reason = Reason.CHAR_DIVIDES_N1_AND_NOT_D
    elif not divides_n1:
        reason = Reason.CHAR_NOT_DIVIDES_N1
    else:
        reason = Reason.CHAR_DIVIDES_D
    return SimplicityVerdict(divides_n1 and not divides_d, reason, spec, n, d)


def build_witness(spec: FieldSpec, n: int, d: int) -> BracketWitness:
    """Construct matrix pairs whose bracket-sum is exactly the identity.

    When the characteristic does not divide n - 1 (always true in
    characteristic 0), sum_i [y_i, x_i] = (n-1) * 1 in the Leavitt algebra;
    scaling by (n-1)^{-1} and placing the pairs on each diagonal slot gives
    the identity.  Otherwise the characteristic divides both n - 1 and d,
    and summing j * [e_{j,j+1}, e_{j+1,j}] over j < d yields a diagonal of
    ones ending in -(d-1) = 1.
    """
    verdict = is_simple(spec, n, d)
    if verdict.simple:
        raise ValueError(
            f"no witness exists: the Lie algebra is simple for {spec}, n={n}, d={d}"
        )
    pairs: List[Tuple[MatrixElement, MatrixElement]] = []
    if not spec.divides(n - 1):
        inv = spec.from_int(n - 1).inv()
        for j in range(1, d + 1):
            for i in range(1, n + 1):
                left = unit(LeavittElement.y_gen(i, n, spec).scale(inv), j, j, d)
                right = unit(LeavittElement.x_gen(i, n, spec), j, j, d)
                pairs.append((left, right))
    else:
        # characteristic divides both n-1 and d; d >= 2 since char >= 2
        assert d >= 2
        one = LeavittElement.one(n, spec)
        for j in range(1, d):
            left = unit(one.scale(spec.from_int(j)), j, j + 1, d)
            right = unit(one, j + 1, j, d)
            pairs.append((left, right))
    return BracketWitness(spec, n, d, tuple(pairs))


def verify_witness(witness: BracketWitness) -> bool:
    """Evaluate the bracket-sum exactly and compare with the identity."""
    _validate_shape(witness.n, witness.d)
    for left, right in witness.pairs:
        if (
            left.d != witness.d
            or right.d != witness.d
            or left.spec != witness.spec
            or right.spec != witness.spec
            or left.n != witness.n
            or right.n != witness.n
        ):
            raise ValueError("malformed witness: mixed dimensions or fields")
    one = LeavittElement.one(witness.n, witness.spec)
    total = MatrixElement.zero(one, witness.d)
    for left, right in witness.pairs:
        total = total + left.bracket(right)
    return total == identity_matrix(one, witness.d)


def nontriviality_probe(spec: FieldSpec, n: int, d: int) -> bool:
    """Whether the iterated bracket [[x1, x2], [x1, x2^2]], placed in the
    (1,1) slot, is nonzero.

    The element expands to six distinct junction-free monomials with
    coefficients +-1, so the probe holds over every field; it certifies
    that the derived Lie algebra is not abelian.
    """
    _validate_shape(n, d)
    x1 = LeavittElement.x_gen(1, n, spec)
    x2 = LeavittElement.x_gen(2, n, spec)
    inner = x1.bracket(x2).bracket(x1.bracket(x2 * x2))
    return not unit(inner, 1, 1, d).is_zero()


def witness_to_doc(witness: BracketWitness) -> Dict:
    """Serialize a witness as a plain JSON-compatible document."""
    return {
        "characteristic": witness.spec.characteristic,
        "n": witness.n,
        "d": witness.d,
        "pairs": [
            [left.to_strings(), right.to_strings()] for left, right in witness.pairs
        ],
    }


def witness_from_doc(doc: Dict) -> BracketWitness:
    """Rebuild a witness from its serialized document.

    A document of the wrong shape or field types raises ValueError.
    """
    if not isinstance(doc, dict):
        raise ValueError(f"malformed witness document: expected a dict, got {type(doc).__name__}")
    for key in ("characteristic", "n", "d"):
        value = doc.get(key)
        if isinstance(value, bool) or not isinstance(value, int):
            raise ValueError(f"malformed witness document: {key!r} must be an int, got {value!r}")
    doc_pairs = doc.get("pairs")
    if not isinstance(doc_pairs, list) or not all(
        isinstance(pair, list) and len(pair) == 2 for pair in doc_pairs
    ):
        raise ValueError("malformed witness document: 'pairs' must be a list of 2-element lists")
    spec = FieldSpec(doc["characteristic"])
    n, d = doc["n"], doc["d"]
    _validate_shape(n, d)
    pairs = []
    for left_rows, right_rows in doc_pairs:
        left = matrix_from_strings(left_rows, n, spec, leavitt=True)
        right = matrix_from_strings(right_rows, n, spec, leavitt=True)
        if left.d != d or right.d != d:
            raise ValueError("malformed witness document: wrong matrix dimension")
        pairs.append((left, right))
    return BracketWitness(spec, n, d, tuple(pairs))

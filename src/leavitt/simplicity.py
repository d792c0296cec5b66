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

from enum import Enum
from typing import TYPE_CHECKING, Dict, List, NamedTuple, Tuple

from .coeffs import FieldSpec, _check_shape, _check_spec

# The verdict needs only the field; the algebra and matrix modules are
# imported by the functions that build or read matrices, so that `simple`
# and a plain `grid` load neither.
if TYPE_CHECKING:
    from .matrix import MatrixElement

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


class SimplicityVerdict(NamedTuple):
    simple: bool
    reason: Reason
    spec: FieldSpec
    n: int
    d: int


class BracketWitness(NamedTuple):
    """Pairs (A_i, B_i) of matrices claimed to satisfy sum [A_i, B_i] = identity."""

    spec: FieldSpec
    n: int
    d: int
    pairs: Tuple[Tuple[MatrixElement, MatrixElement], ...]


def is_simple(spec: FieldSpec, n: int, d: int) -> SimplicityVerdict:
    """Decide simplicity of the derived Lie algebra for this configuration."""
    _check_shape(n, d)
    _check_spec(spec)
    divides_n1 = spec.divides(n - 1)
    divides_d = spec.divides(d)
    if divides_n1 and not divides_d:
        reason = Reason.CHAR_DIVIDES_N1_AND_NOT_D
    elif not divides_n1:
        reason = Reason.CHAR_NOT_DIVIDES_N1
    else:
        reason = Reason.CHAR_DIVIDES_D
    return SimplicityVerdict(divides_n1 and not divides_d, reason, spec, n, d)


def _dense_cells(spec: FieldSpec, n: int, d: int) -> int:
    """The cells of build_witness's dense document, or 0 when no witness exists:
    two d x d arrays per pair, n*d pairs, or d-1 when the characteristic divides n-1."""
    if is_simple(spec, n, d).simple:
        return 0
    return 2 * d * d * (d - 1 if spec.divides(n - 1) else n * d)


def build_witness(spec: FieldSpec, n: int, d: int) -> BracketWitness:
    """Construct matrix pairs whose bracket-sum is exactly the identity.

    When the characteristic does not divide n - 1 (always true in
    characteristic 0), sum_i [y_i, x_i] = (n-1) * 1 in the Leavitt algebra;
    scaling by (n-1)^{-1} and placing the pairs on each diagonal slot gives
    the identity.  Otherwise the characteristic divides both n - 1 and d,
    and summing j * [e_{j,j+1}, e_{j+1,j}] over j < d yields a diagonal of
    ones ending in -(d-1) = 1.
    """
    from .leavitt import LeavittElement
    from .matrix import MatrixElement

    verdict = is_simple(spec, n, d)
    if verdict.simple:
        raise ValueError(
            f"no witness exists: the Lie algebra is simple for {spec}, n={n}, d={d}"
        )
    zero = LeavittElement.zero(n, spec)

    def place(entry, i: int, j: int) -> MatrixElement:
        # matrix.unit without its checks: spec, n and d were checked once above
        return MatrixElement._from_map(zero, d, {} if entry.is_zero() else {(i - 1, j - 1): entry})

    pairs: List[Tuple[MatrixElement, MatrixElement]] = []
    if not spec.divides(n - 1):
        inv = spec.from_int(n - 1).inv()
        # elements are immutable, so every slot shares the same 2n entries
        ys = [LeavittElement.y_gen(i, n, spec).scale(inv) for i in range(1, n + 1)]
        xs = [LeavittElement.x_gen(i, n, spec) for i in range(1, n + 1)]
        for j in range(1, d + 1):
            pairs.extend((place(y, j, j), place(x, j, j)) for y, x in zip(ys, xs))
    else:
        # characteristic divides both n-1 and d; d >= 2 since char >= 2
        assert d >= 2
        one = LeavittElement.one(n, spec)
        for j in range(1, d):
            left = place(one.scale(spec.from_int(j)), j, j + 1)
            right = place(one, j + 1, j)
            pairs.append((left, right))
    return BracketWitness(spec, n, d, tuple(pairs))


def verify_witness(witness: BracketWitness) -> bool:
    """Evaluate the bracket-sum exactly and compare with the identity."""
    from .leavitt import LeavittElement
    from .matrix import MatrixElement, _combine, identity_matrix

    if not isinstance(witness.spec, FieldSpec):
        raise ValueError(
            f"malformed witness: the field must be a FieldSpec, got {type(witness.spec).__name__}"
        )
    _check_shape(witness.n, witness.d)
    one = LeavittElement.one(witness.n, witness.spec)
    target = identity_matrix(one, witness.d)
    d, zero, products = witness.d, target._zero, []
    for pair in witness.pairs:
        if not (isinstance(pair, (tuple, list)) and len(pair) == 2
                and all(isinstance(m, MatrixElement) for m in pair)):
            raise ValueError("malformed witness: each pair must be two MatrixElements")
        # an equal zero element means the same entry algebra, field and alphabet
        if not all(m.d == d and zero == m._zero for m in pair):
            if any(m.d != d or m.spec != witness.spec or m.n != witness.n for m in pair):
                raise ValueError("malformed witness: mixed dimensions or fields")
            for m in pair:
                target._check(m)  # Leavitt entries, as the identity's are
        products += ((pair[0], pair[1], 1), (pair[1], pair[0], -1))
    return _combine(one.zero_like(), witness.d, products) == target


def nontriviality_probe(spec: FieldSpec, n: int, d: int) -> bool:
    """Whether the iterated bracket [[x1, x2], [x1, x2^2]], placed in the
    (1,1) slot, is nonzero.

    The element expands to six distinct junction-free monomials with
    coefficients +-1, so the probe holds over every field; it certifies
    that the derived Lie algebra is not abelian.
    """
    from .leavitt import LeavittElement

    _check_shape(n, d)
    _check_spec(spec)
    x1 = LeavittElement.x_gen(1, n, spec)
    x2 = LeavittElement.x_gen(2, n, spec)
    # the (1,1) unit matrix of an element is zero exactly when the element is
    return not x1.bracket(x2).bracket(x1.bracket(x2 * x2)).is_zero()


def witness_to_doc(witness: BracketWitness) -> Dict:
    """Serialize a witness as a plain JSON-compatible document."""
    texts: Dict = {}  # the pairs share their entries, and each is printed once
    return {
        "characteristic": witness.spec.characteristic,
        "n": witness.n,
        "d": witness.d,
        "pairs": [
            [left._strings(texts), right._strings(texts)] for left, right in witness.pairs
        ],
    }


def witness_from_doc(doc: Dict) -> BracketWitness:
    """Rebuild a witness from its serialized document.

    A document of the wrong shape or field types raises ValueError.
    """
    from .leavitt import LeavittElement
    from .matrix import _from_strings

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
    _check_shape(n, d)
    pairs = []
    # each distinct entry text is parsed once per document, and every matrix shares one zero
    parsed: Dict = {}
    zero = LeavittElement.zero(n, spec)
    for left_rows, right_rows in doc_pairs:
        left = _from_strings(left_rows, zero, parsed)
        right = _from_strings(right_rows, zero, parsed)
        if left.d != d or right.d != d:
            raise ValueError("malformed witness document: wrong matrix dimension")
        pairs.append((left, right))
    return BracketWitness(spec, n, d, tuple(pairs))

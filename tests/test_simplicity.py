import json
import random

import pytest

from leavitt import (
    BracketWitness,
    FieldSpec,
    LeavittElement,
    Reason,
    Scalar,
    build_witness,
    identity_matrix,
    is_simple,
    nontriviality_probe,
    verify_witness,
    witness_from_doc,
    witness_to_doc,
)

from helpers import random_cohn
from leavitt.leavitt import normal_form

Q = FieldSpec(0)
F2 = FieldSpec(2)
F3 = FieldSpec(3)
F5 = FieldSpec(5)


def test_verdict_examples():
    assert is_simple(F2, 3, 1).simple
    assert is_simple(F2, 3, 1).reason is Reason.CHAR_DIVIDES_N1_AND_NOT_D

    v = is_simple(F3, 3, 1)
    assert not v.simple and v.reason is Reason.CHAR_NOT_DIVIDES_N1

    v = is_simple(F2, 3, 2)
    assert not v.simple and v.reason is Reason.CHAR_DIVIDES_D

    for n in (2, 3, 5):
        for d in (1, 2, 4):
            assert not is_simple(Q, n, d).simple


def test_verdict_agrees_with_direct_divisibility():
    for p in (0, 2, 3, 5, 7, 11):
        spec = FieldSpec(p)
        for n in range(2, 9):
            for d in range(1, 7):
                expected = spec.divides(n - 1) and not spec.divides(d)
                assert is_simple(spec, n, d).simple == expected


def test_invalid_shapes_rejected():
    with pytest.raises(ValueError):
        is_simple(Q, 1, 1)
    with pytest.raises(ValueError):
        is_simple(Q, 2, 0)
    with pytest.raises(ValueError):
        build_witness(Q, 1, 2)


def test_witness_structure_in_the_diagonal_case():
    w = build_witness(F5, 3, 1)
    assert len(w.pairs) == 3
    inv = Scalar(F5, 3)  # (3-1)^{-1} = 3 in F_5
    for i, (left, right) in enumerate(w.pairs, start=1):
        assert left.entry(0, 0) == LeavittElement.y_gen(i, 3, F5).scale(inv)
        assert right.entry(0, 0) == LeavittElement.x_gen(i, 3, F5)
    assert verify_witness(w)


def test_witness_structure_in_the_nilpotent_case():
    w = build_witness(F2, 3, 2)
    assert len(w.pairs) == 1
    left, right = w.pairs[0]
    one = LeavittElement.one(3, F2)
    assert left.entry(0, 1) == one and left.entry(1, 0).is_zero()
    assert right.entry(1, 0) == one and right.entry(0, 1).is_zero()
    assert verify_witness(w)


def test_witness_refused_for_simple_configurations():
    with pytest.raises(ValueError):
        build_witness(F2, 3, 1)
    with pytest.raises(ValueError):
        build_witness(F3, 4, 2)


def test_diagonal_case_preferred_when_both_apply():
    # char 2 with n = 4: 2 does not divide n-1 = 3, and 2 divides d = 2
    w = build_witness(F2, 4, 2)
    assert len(w.pairs) == 4 * 2
    assert verify_witness(w)


def test_characteristic_zero_always_has_a_witness():
    for n in (2, 3, 4):
        for d in (1, 2, 3):
            assert verify_witness(build_witness(Q, n, d))


def test_empty_witness_fails_verification():
    w = BracketWitness(Q, 2, 2, ())
    assert not verify_witness(w)


def test_tampered_witness_fails_verification():
    w = build_witness(F5, 3, 2)
    tampered = BracketWitness(w.spec, w.n, w.d, w.pairs[1:])
    assert not verify_witness(tampered)


def test_mixed_dimension_witness_rejected():
    w = build_witness(Q, 2, 2)
    other = build_witness(Q, 2, 3)
    broken = BracketWitness(Q, 2, 2, w.pairs + other.pairs[:1])
    with pytest.raises(ValueError):
        verify_witness(broken)


def test_witness_document_round_trip():
    for spec, n, d in ((Q, 3, 2), (F5, 3, 1), (F2, 3, 2), (F3, 4, 3)):
        w = build_witness(spec, n, d)
        doc = witness_to_doc(w)
        rebuilt = witness_from_doc(json.loads(json.dumps(doc)))
        assert verify_witness(rebuilt)
        assert witness_to_doc(rebuilt) == doc


_GOOD_DOC = witness_to_doc(build_witness(Q, 2, 1))


@pytest.mark.parametrize(
    "change",
    [
        lambda doc: [doc],
        lambda doc: {**doc, "n": "2"},
        lambda doc: {**doc, "d": 1.0},
        lambda doc: {**doc, "characteristic": True},
        lambda doc: {k: v for k, v in doc.items() if k != "characteristic"},
        lambda doc: {**doc, "pairs": [1]},
        lambda doc: {**doc, "pairs": [doc["pairs"][0][:1]]},
        lambda doc: {**doc, "pairs": "[]"},
        lambda doc: {k: v for k, v in doc.items() if k != "pairs"},
    ],
    ids=["list", "str-n", "float-d", "bool-char", "no-char", "int-pair", "short-pair",
         "str-pairs", "no-pairs"],
)
def test_malformed_witness_document_rejected(change):
    doc = change(json.loads(json.dumps(_GOOD_DOC)))
    with pytest.raises(ValueError, match="^malformed witness document: "):
        witness_from_doc(doc)


def test_trace_obstruction_blocks_witnesses_in_simple_configurations():
    rng = random.Random(23)
    for n, p, d in ((3, 2, 1), (4, 3, 2), (3, 2, 3)):
        spec = FieldSpec(p)
        assert is_simple(spec, n, d).simple
        eye = identity_matrix(LeavittElement.one(n, spec), d)
        assert eye.trace() == spec.from_int(d)
        assert not eye.trace().is_zero()
        for _ in range(25):
            total = None
            for _ in range(2):
                a = _random_matrix(d, n, spec, rng)
                b = _random_matrix(d, n, spec, rng)
                term = a.bracket(b)
                total = term if total is None else total + term
            assert total.trace().is_zero()


def _random_matrix(d, n, spec, rng):
    from leavitt import MatrixElement

    return MatrixElement(
        [
            [normal_form(random_cohn(n, spec, rng, max_len=2, max_terms=2)) for _ in range(d)]
            for _ in range(d)
        ]
    )


def test_diagonal_witness_specializes_to_the_scalar_identity():
    for n, spec in ((3, F5), (4, Q), (5, F3)):
        w = build_witness(spec, n, 1)
        total = LeavittElement.zero(n, spec)
        for left, right in w.pairs:
            total = total + left.entry(0, 0).bracket(right.entry(0, 0))
        assert total == LeavittElement.one(n, spec)


def test_nontriviality_probe():
    assert nontriviality_probe(F2, 2, 1)
    assert nontriviality_probe(FieldSpec(7), 5, 3)
    assert nontriviality_probe(Q, 2, 2)

import json
import random

import pytest

from leavitt import (
    BracketWitness,
    FieldSpec,
    LeavittElement,
    MatrixElement,
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
from leavitt import matrix
from leavitt.cohn import _Element, parse_element
from leavitt.leavitt import normal_form
from leavitt.matrix import unit

_element_str = _Element.__str__

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


def test_verdict_and_witness_are_immutable_values():
    for a, b in ((is_simple(F3, 4, 2), is_simple(F3, 4, 2)),
                 (build_witness(F5, 3, 2), build_witness(F5, 3, 2))):
        assert a == b and hash(a) == hash(b)
        with pytest.raises(AttributeError):
            a.n = 7
    assert is_simple(F3, 4, 2) != is_simple(F3, 4, 3)
    assert build_witness(F5, 3, 2) != build_witness(F5, 3, 3)


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
    for spec, d in ((Q, 2), (Q, 1), (F5, 3)):
        assert not verify_witness(BracketWitness(spec, 2, d, ()))


def test_tampered_witness_fails_verification():
    w = build_witness(F5, 3, 2)
    tampered = BracketWitness(w.spec, w.n, w.d, w.pairs[1:])
    assert not verify_witness(tampered)


def test_mixed_dimension_witness_rejected():
    w = build_witness(Q, 2, 2)
    other = build_witness(Q, 2, 3)
    broken = BracketWitness(Q, 2, 2, w.pairs + other.pairs[:1])
    with pytest.raises(ValueError, match="^malformed witness: mixed dimensions or fields$"):
        verify_witness(broken)


def _cancelling_witness(spec, y1_coeffs=(2, 3, 6), repeats=0):
    """Pairs over L(2) with d = 2 whose brackets sum to I only through cancellation
    at one position: on each diagonal slot, [y1/c, x1] for c in y1_coeffs (so
    denominators 2, 3 and 6) and [y2, x2], whose sum is (1 - x1 y1) + (1 - x2 y2)
    = 1 as x2 y2 = 1 - x1 y1; then [e12 x1, e21 y1] and [e21 y1, e12 x1], which
    cancel at both diagonal positions, and repeats copies of [e11 y1, e11 x1]."""
    n, d = 2, 2
    x1, x2 = LeavittElement.x_gen(1, n, spec), LeavittElement.x_gen(2, n, spec)
    y1, y2 = LeavittElement.y_gen(1, n, spec), LeavittElement.y_gen(2, n, spec)
    pairs = []
    for j in (1, 2):
        for c in y1_coeffs:
            pairs.append((unit(y1.scale(spec.from_int(c).inv()), j, j, d), unit(x1, j, j, d)))
        pairs.append((unit(y2, j, j, d), unit(x2, j, j, d)))
    pairs += [(unit(x1, 1, 2, d), unit(y1, 2, 1, d)), (unit(y1, 2, 1, d), unit(x1, 1, 2, d))]
    pairs += [(unit(y1, 1, 1, d), unit(x1, 1, 1, d))] * repeats
    return BracketWitness(spec, n, d, tuple(pairs))


def test_brackets_that_reach_the_identity_only_across_pairs_verify():
    assert verify_witness(_cancelling_witness(Q))
    assert not verify_witness(_cancelling_witness(Q, (2, 3, 5)))
    for left, right in _cancelling_witness(Q).pairs:
        assert left.bracket(right) != identity_matrix(LeavittElement.one(2, Q), 2)


def test_brackets_whose_accumulated_integers_exceed_p_verify():
    # 1/2, 1/3, 1/6 are 3, 2, 1 in F_5; five more copies of [y1, x1] add 5(1 - x1 y1) = 0
    assert verify_witness(_cancelling_witness(F5, repeats=5))
    assert not verify_witness(_cancelling_witness(F5, repeats=4))
    assert not verify_witness(_cancelling_witness(F5, (2, 3, 3), repeats=5))


def test_pairs_over_another_entry_algebra_are_rejected():
    good = _cancelling_witness(Q).pairs
    cohn = MatrixElement([[LeavittElement.y_gen(1, 2, Q).rep, LeavittElement.zero(2, Q).rep]] * 2)
    for pairs in ((good[0], (cohn, cohn)), ((good[0][0], cohn),)):
        with pytest.raises(ValueError, match="^mismatched field, alphabet or entry algebra$"):
            verify_witness(BracketWitness(Q, 2, 2, pairs))


def test_witness_document_round_trip():
    for spec, n, d in ((Q, 3, 2), (F5, 3, 1), (F2, 3, 2), (F3, 4, 3)):
        w = build_witness(spec, n, d)
        doc = witness_to_doc(w)
        rebuilt = witness_from_doc(json.loads(json.dumps(doc)))
        assert verify_witness(rebuilt)
        assert witness_to_doc(rebuilt) == doc
        assert len({id(m._zero) for pair in rebuilt.pairs for m in pair}) == 1  # one zero per document


# The acceptance grid and the dimension sweep at n = 3 that the benchmark runs.
_GRID = [(FieldSpec(p), n, d) for p in (0, 2, 3, 5, 7, 11) for n in range(2, 9) for d in range(1, 7)]
_SWEEP = [(Q, 3, d) for d in range(1, 17)] + [(F2, 3, d) for d in range(2, 17, 2)]


def test_witness_document_is_each_matrix_printed_alone():
    for spec, n, d in _GRID + _SWEEP:
        if is_simple(spec, n, d).simple:
            continue
        w = build_witness(spec, n, d)
        doc = witness_to_doc(w)
        assert doc["pairs"] == [[left.to_strings(), right.to_strings()] for left, right in w.pairs]
        assert witness_from_doc(json.loads(json.dumps(doc))) == w


def test_witness_entries_are_built_printed_and_parsed_once(monkeypatch):
    w = build_witness(Q, 3, 4)
    shared = {id(e) for pair in w.pairs for m in pair for e in m.entries.values()}
    assert len(shared) == 6  # y_i / 2 and x_i, for i = 1..3, on every diagonal slot
    printed = []
    monkeypatch.setattr(LeavittElement, "__str__", lambda e: printed.append(e) or _element_str(e))
    doc = witness_to_doc(w)
    assert len(printed) == 6
    parsed = []
    monkeypatch.setattr(matrix, "parse_element", lambda *args: parsed.append(args[0]) or parse_element(*args))
    assert witness_from_doc(doc) == w
    assert sorted(parsed) == sorted(set(parsed)) and len(parsed) == 6


def test_witness_places_its_entries_without_the_checked_unit(monkeypatch):
    # build_witness checks spec, n and d once, so its 2n*d (or d-1) placements skip unit's checks
    F2, F3 = FieldSpec(2), FieldSpec(3)
    expected = {}
    for spec, n, d in ((Q, 3, 4), (F3, 3, 2), (F2, 3, 4), (F3, 4, 3)):
        if not spec.divides(n - 1):
            inv = spec.from_int(n - 1).inv()
            ys = [LeavittElement.y_gen(i, n, spec).scale(inv) for i in range(1, n + 1)]
            xs = [LeavittElement.x_gen(i, n, spec) for i in range(1, n + 1)]
            pairs = [(unit(y, j, j, d), unit(x, j, j, d)) for j in range(1, d + 1) for y, x in zip(ys, xs)]
        else:
            one = LeavittElement.one(n, spec)
            pairs = [(unit(one * j, j, j + 1, d), unit(one, j + 1, j, d)) for j in range(1, d)]
        expected[(spec, n, d)] = BracketWitness(spec, n, d, tuple(pairs))
    assert expected[(F2, 3, 4)].pairs[1][0].entries == {}  # 2 * 1 is zero in F2: nothing stored
    monkeypatch.setattr(matrix, "unit", lambda *args: pytest.fail("build_witness called matrix.unit"))
    for (spec, n, d), want in expected.items():
        got = build_witness(spec, n, d)
        assert got == want and verify_witness(got)
        for pair, want_pair in zip(got.pairs, want.pairs):
            assert [m.entries for m in pair] == [m.entries for m in want_pair]


def test_identity_matrix_prints_its_diagonal_once(monkeypatch):
    one = LeavittElement.one(2, Q)
    printed = []
    monkeypatch.setattr(LeavittElement, "__str__", lambda e: printed.append(e) or _element_str(e))
    assert identity_matrix(one, 3).to_strings() == [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]
    assert printed == [one]


def _two_pair_doc():
    doc = witness_to_doc(build_witness(Q, 2, 2))
    return json.loads(json.dumps(doc))


def test_a_bad_cell_in_a_zero_row_of_a_later_matrix_is_refused():
    doc = _two_pair_doc()
    rows = doc["pairs"][3][1]  # the last matrix, x_2 at (2, 2)
    assert rows[0] == ["0", "0"]
    rows[0] = ["0", 0]
    with pytest.raises(ValueError, match="^a matrix must be a list of lists of element strings$"):
        witness_from_doc(doc)


def test_a_bad_text_repeated_across_matrices_fails_at_its_first_cell():
    doc = _two_pair_doc()
    for pair in doc["pairs"]:
        for rows in pair:
            rows[0][0] = "x[1]*"
    with pytest.raises(ValueError) as expected:
        parse_element("x[1]*", 2, Q)
    cells = []
    real = matrix.parse_element

    def spy(text, n, spec):
        cells.append(text)
        return real(text, n, spec)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(matrix, "parse_element", spy)
        with pytest.raises(ValueError) as got:
            witness_from_doc(doc)
    assert str(got.value) == str(expected.value) == "dangling operator in element text"
    assert cells == ["x[1]*"]


def test_cells_of_a_str_subclass_are_accepted():
    class Text(str):
        pass

    doc = _two_pair_doc()
    doc["pairs"] = [[[[Text(t) for t in row] for row in rows] for rows in pair] for pair in doc["pairs"]]
    assert verify_witness(witness_from_doc(doc))
    assert matrix.matrix_from_strings([[Text("x[1]"), Text("0")], [Text("0"), Text("0")]], 2, Q) == unit(
        LeavittElement.x_gen(1, 2, Q), 1, 1, 2
    )


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


_GOOD_PAIR = build_witness(Q, 2, 1).pairs[0]


@pytest.mark.parametrize(
    "pairs",
    [(_GOOD_PAIR, (1, 2)), (_GOOD_PAIR[:1],), (_GOOD_PAIR * 2,), (None,), ("ab",),
     ([_GOOD_PAIR[0], 1],), ([*_GOOD_PAIR, _GOOD_PAIR[0]],)],
    ids=["ints", "one-matrix", "four-matrices", "none", "str", "list-with-int", "list-of-three"],
)
def test_witness_pairs_that_are_not_two_matrices_are_rejected(pairs):
    with pytest.raises(ValueError, match="^malformed witness: each pair must be two MatrixElements$"):
        verify_witness(BracketWitness(Q, 2, 1, pairs))


class _Matrix(MatrixElement):
    __slots__ = ()


@pytest.mark.parametrize(
    "form",
    [tuple, list, lambda pair: tuple(_Matrix._from_map(m._zero, m.d, m.entries) for m in pair)],
    ids=["tuple", "list", "subclass"],
)
@pytest.mark.parametrize("spec, n, d", [(Q, 3, 2), (F5, 3, 1), (F2, 3, 2), (F3, 4, 3)], ids=str)
def test_witness_pairs_that_are_lists_or_of_a_matrix_subclass_verify(form, spec, n, d):
    pairs = tuple(form(pair) for pair in build_witness(spec, n, d).pairs)
    assert verify_witness(BracketWitness(spec, n, d, pairs))
    assert not verify_witness(BracketWitness(spec, n, d, pairs[1:]))


def test_witness_whose_field_is_not_a_field_spec_is_rejected():
    with pytest.raises(ValueError, match="^malformed witness: the field must be a FieldSpec, got NoneType$"):
        verify_witness(BracketWitness(None, 2, 1, ()))
    for call, shown in ((lambda: is_simple(5, 3, 1), "int: 5"),
                        (lambda: build_witness(None, 3, 1), "NoneType: None"),
                        (lambda: nontriviality_probe(5, 3, 1), "int: 5")):
        with pytest.raises(TypeError, match=f"^spec must be a FieldSpec, got {shown}$"):
            call()


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

import random

import pytest

from leavitt import (
    BracketWitness,
    CohnElement,
    FieldSpec,
    LeavittElement,
    MatrixElement,
    Scalar,
    build_witness,
    identity_matrix,
    is_simple,
    matrix_from_strings,
    unit,
    verify_witness,
)

from helpers import entry_map_mul, phi, phi_inverse, random_cohn, transport, transport_factors
from leavitt.leavitt import normal_form

Q = FieldSpec(0)
F2 = FieldSpec(2)
F3 = FieldSpec(3)


def random_matrix(d, n, spec, rng, leavitt=True):
    def entry():
        c = random_cohn(n, spec, rng, max_len=2, max_terms=2)
        return normal_form(c) if leavitt else c

    return MatrixElement([[entry() for _ in range(d)] for _ in range(d)])


def test_unit_bracket_gives_diagonal_difference():
    one = LeavittElement.one(3, F2)
    got = unit(one, 1, 2, 2).bracket(unit(one, 2, 1, 2))
    expected = unit(one, 1, 1, 2) - unit(one, 2, 2, 2)
    assert got == expected


def test_identity_is_neutral():
    rng = random.Random(3)
    eye = identity_matrix(LeavittElement.one(3, Q), 3)
    for _ in range(20):
        a = random_matrix(3, 3, Q, rng)
        assert a * eye == a
        assert eye * a == a


def test_bracket_is_alternating():
    rng = random.Random(5)
    for _ in range(20):
        a = random_matrix(2, 2, F2, rng)
        assert a.bracket(a).is_zero()


@pytest.mark.parametrize("operand", [3, Scalar(Q, 3), LeavittElement.one(3, Q)])
def test_bracket_rejects_an_operand_that_is_not_a_matrix(operand):
    m = unit(LeavittElement.x_gen(1, 3, Q), 1, 2, 2)
    with pytest.raises(TypeError, match=f"expected MatrixElement, got {type(operand).__name__}"):
        m.bracket(operand)


def test_subtraction_matches_adding_the_negation():
    rng = random.Random(9)
    for _ in range(30):
        spec = rng.choice((Q, F2))
        a, b = random_matrix(3, 2, spec, rng), random_matrix(3, 2, spec, rng)
        assert a - b == a + (-b)
        assert (a - a).is_zero()


def test_unit_product_calculus():
    rng = random.Random(7)
    d = 3
    for _ in range(60):
        i, j, k, l = (rng.randint(1, d) for _ in range(4))
        a = normal_form(random_cohn(2, Q, rng, max_len=2, max_terms=2))
        b = normal_form(random_cohn(2, Q, rng, max_len=2, max_terms=2))
        got = unit(a, i, j, d) * unit(b, k, l, d)
        if j == k:
            assert got == unit(a * b, i, l, d)
        else:
            assert got.is_zero()


def test_units_decompose_the_identity():
    one = LeavittElement.one(2, Q)
    total = unit(one, 1, 1, 3) + unit(one, 2, 2, 3) + unit(one, 3, 3, 3)
    assert total == identity_matrix(one, 3)


def test_single_cell_identity():
    one = LeavittElement.one(2, Q)
    assert unit(one, 1, 1, 1) == identity_matrix(one, 1)


def test_unit_rejects_out_of_range_positions():
    one = LeavittElement.one(2, Q)
    for i, j in ((0, 1), (1, 0), (3, 1), (1, 3)):
        with pytest.raises(ValueError):
            unit(one, i, j, 2)


def test_dimension_and_context_mismatches():
    one2 = LeavittElement.one(2, Q)
    one3 = LeavittElement.one(3, Q)
    with pytest.raises(ValueError):
        identity_matrix(one2, 2) + identity_matrix(one2, 3)
    with pytest.raises(ValueError):
        MatrixElement([[one2, one3], [one2, one2]])
    with pytest.raises(ValueError):
        MatrixElement([[one2, one2]])


@pytest.mark.parametrize(
    "build, shown",
    [
        (lambda: MatrixElement([[1]]), "int: 1"),
        (lambda: MatrixElement(["ab", "cd"]), "str: 'a'"),
        (lambda: MatrixElement([[LeavittElement.one(2, Q), None]] * 2), "NoneType: None"),
        (lambda: unit(3, 1, 1, 2), "int: 3"),
        (lambda: identity_matrix(3, 2), "int: 3"),
        (lambda: MatrixElement.zero(3, 2), "int: 3"),
    ],
    # the first three ids are the ones pytest gave these cases as row arrays, kept so their names stay stable
    ids=["rows0-int: 1", "rows1-str: 'a'", "rows2-NoneType: None", "unit", "identity_matrix", "zero"],
)
def test_entries_that_are_not_ring_elements_are_rejected(build, shown):
    with pytest.raises(TypeError, match=f"^entry must be a CohnElement or LeavittElement, got {shown}$"):
        build()


def test_matrix_trace_of_identity():
    eye = identity_matrix(LeavittElement.one(3, F2), 4)
    assert eye.trace() == F2.zero()  # 4 * 1 = 0 in characteristic 2
    eye3 = identity_matrix(LeavittElement.one(3, F2), 3)
    assert eye3.trace() == F2.one()


def test_matrix_trace_of_off_diagonal_unit():
    got = unit(LeavittElement.one(3, F2), 1, 2, 3).trace()
    assert got.is_zero()


def test_matrix_trace_is_symmetric():
    rng = random.Random(11)
    for n, p in ((3, 2), (4, 3)):
        spec = FieldSpec(p)
        for d in (1, 2, 3):
            for _ in range(15):
                a = random_matrix(d, n, spec, rng)
                b = random_matrix(d, n, spec, rng)
                assert (a * b).trace() == (b * a).trace()
                assert a.bracket(b).trace().is_zero()


def test_matrix_trace_over_cohn_entries():
    # the same matrix code runs over the plain algebra, whose trace is total
    one = CohnElement.one(3, Q)
    eye = identity_matrix(one, 2)
    assert eye.trace() == Scalar(Q, 2)


def test_matrix_multiplication_is_associative():
    rng = random.Random(13)
    for _ in range(10):
        a = random_matrix(2, 2, F2, rng)
        b = random_matrix(2, 2, F2, rng)
        c = random_matrix(2, 2, F2, rng)
        assert (a * b) * c == a * (b * c)


def test_scaling():
    one = LeavittElement.one(2, Q)
    eye = identity_matrix(one, 2)
    assert eye.scale(Scalar(Q, 3)) == eye * 3
    s = Scalar(Q, -3)
    assert s * eye == eye * s == eye.scale(s)
    with pytest.raises(ValueError, match="mismatched fields"):
        Scalar(F2, 1) * eye


def test_string_round_trip():
    rng = random.Random(17)
    for _ in range(10):
        a = random_matrix(2, 3, F2, rng)
        rows = a.to_strings()
        back = matrix_from_strings(rows, 3, F2)
        assert back == a
        assert back.to_strings() == rows


def dense_product(a, b):
    """Reference product: the full triple loop over entry positions."""
    d = a.d
    rows = []
    for i in range(d):
        row = []
        for j in range(d):
            acc = a.entry(0, 0).zero_like()
            for k in range(d):
                acc = acc + a.entry(i, k) * b.entry(k, j)
            row.append(acc)
        rows.append(row)
    return MatrixElement(rows)


def sparse_random_matrix(d, n, spec, rng):
    # about half the positions are zero, so products skip and cancel entries
    def entry():
        c = random_cohn(n, spec, rng, max_len=2, max_terms=2)
        return normal_form(c) if rng.random() < 0.5 else normal_form(c.zero_like())

    return MatrixElement([[entry() for _ in range(d)] for _ in range(d)])


def no_zero_stored(m):
    return all(not e.is_zero() for e in m.entries.values())


def test_sparse_product_matches_the_dense_reference():
    rng = random.Random(19)
    for spec in (Q, F2, FieldSpec(3)):
        for d in (1, 2, 3, 4):
            for _ in range(5):
                a = sparse_random_matrix(d, 2, spec, rng)
                b = sparse_random_matrix(d, 2, spec, rng)
                got = a * b
                assert got == dense_product(a, b)
                assert no_zero_stored(got)


def test_dense_constructor_drops_zeros():
    one = LeavittElement.one(2, Q)
    zero = one.zero_like()
    m = MatrixElement([[zero, one], [zero, zero]])
    assert m.entries == {(0, 1): one}
    assert m.entry(1, 1) == zero
    assert m.to_strings() == [["0", "1"], ["0", "0"]]


def test_no_zero_is_stored_when_entries_cancel():
    rng = random.Random(23)
    d = 3
    for _ in range(10):
        a = random_matrix(d, 2, F2, rng)
        for got in (a.bracket(a), a - a, a + (-a), a.scale(F2.zero()), a * 2, a * 0):
            assert got.is_zero() and got.entries == {}
    y1 = LeavittElement.y_gen(1, 2, Q)
    x2 = LeavittElement.x_gen(2, 2, Q)
    got = unit(y1, 1, 2, d) * unit(x2, 2, 1, d)  # y1 * x2 = 0
    assert got.entries == {} and got == unit(y1.zero_like(), 1, 1, d)
    assert unit(y1.zero_like(), 2, 2, d).entries == {}


def test_empty_matrices_remember_their_algebra():
    zeros = [
        MatrixElement.zero(LeavittElement.one(2, Q), 2),
        MatrixElement.zero(LeavittElement.one(3, Q), 2),
        MatrixElement.zero(LeavittElement.one(2, F2), 2),
        MatrixElement.zero(CohnElement.one(2, Q), 2),
        MatrixElement.zero(LeavittElement.one(2, Q), 3),
    ]
    for i, a in enumerate(zeros):
        assert a.is_zero()
        for j, b in enumerate(zeros):
            assert (a == b) == (i == j)
    again = MatrixElement.zero(LeavittElement.zero(2, Q), 2)
    assert again == zeros[0] and hash(again) == hash(zeros[0])
    assert (zeros[1].spec, zeros[1].n) == (Q, 3)
    with pytest.raises(ValueError):
        zeros[0] + zeros[1]
    with pytest.raises(ValueError):
        zeros[0] * zeros[3]


def test_hash_agrees_with_equality():
    rng = random.Random(29)
    for _ in range(10):
        a = random_matrix(2, 2, Q, rng)
        b = matrix_from_strings(a.to_strings(), 2, Q)
        assert a == b and hash(a) == hash(b)
        assert len({a, b, a + a - a}) == 1


def test_entry_accessor():
    one = LeavittElement.one(2, Q)
    m = unit(one, 2, 1, 2)
    assert m.entry(1, 0) == one
    assert m.entry(0, 1) == one.zero_like()
    for i, j in ((2, 0), (0, 2), (-1, 0)):
        with pytest.raises(IndexError):
            m.entry(i, j)


def test_matrix_from_strings_requires_a_square_list_of_lists_of_strings():
    for rows in ("1", ["1"], [[1]], [["1", "0"]], [], None, {"a": "1"}, [["0"], "0"]):
        with pytest.raises(ValueError):
            matrix_from_strings(rows, 2, Q)


@pytest.mark.parametrize("spec", [Q, F2, F3], ids=str)
@pytest.mark.parametrize("n", [2, 3])
def test_phi_is_a_ring_isomorphism_onto_n_by_n_matrices(spec, n):
    # the matrix ring and the Leavitt product checked against each other
    rng = random.Random(1000 * n + spec.characteristic)
    one = LeavittElement.one(n, spec)
    assert phi(one) == identity_matrix(one, n)
    for _ in range(10):
        a = normal_form(random_cohn(n, spec, rng, 4, 4))
        b = normal_form(random_cohn(n, spec, rng, 4, 4))
        assert phi(a * b) == phi(a) * phi(b)
        assert phi(a + b) == phi(a) + phi(b)
        assert phi(a.bracket(b)) == phi(a).bracket(phi(b))
        assert phi_inverse(phi(a)) == a
        if spec.divides(n - 1):
            for c in (a, b, a * b):
                assert phi(c).trace() == c.trace()


# --- M_d(L(n)) -> M_{d+n-1}(L(n)) ------------------------------------------------


@pytest.mark.parametrize("spec", [Q, F2, F3], ids=str)
@pytest.mark.parametrize("n", [2, 3, 4])
def test_transport_factors_are_inverse_on_both_sides(spec, n):
    one = LeavittElement.one(n, spec)
    zero = one.zero_like()
    for d in range(1, 5):
        p, q = transport_factors(n, spec, d)
        assert entry_map_mul(q, p, zero) == {(i, i): one for i in range(d)}
        assert entry_map_mul(p, q, zero) == {(i, i): one for i in range(d + n - 1)}


@pytest.mark.parametrize("spec", [Q, F2, F3], ids=str)
@pytest.mark.parametrize("n", [2, 3])
def test_transport_is_a_ring_isomorphism_onto_larger_matrices(spec, n):
    rng = random.Random(2000 * n + spec.characteristic)
    for d in (1, 2, 3):
        one = LeavittElement.one(n, spec)
        assert transport(identity_matrix(one, d)) == identity_matrix(one, d + n - 1)
        for _ in range(4):
            a, b = random_matrix(d, n, spec, rng), random_matrix(d, n, spec, rng)
            assert transport(a * b) == transport(a) * transport(b)
            assert transport(a + b) == transport(a) + transport(b)
            assert transport(a.bracket(b)) == transport(a).bracket(transport(b))
            if spec.divides(n - 1):
                assert transport(a).trace() == a.trace()


GRID = [(FieldSpec(p), n, d) for p in (0, 2, 3, 5, 7, 11) for n in range(2, 9) for d in range(1, 7)]
LARGE = [(FieldSpec(p), n, d) for p, n in ((0, 2), (0, 3), (2, 3)) for d in (64, 256)]


def test_transported_witnesses_verify_one_size_up():
    # M_d(L(n)) and M_{d+n-1}(L(n)) are isomorphic, so the verdicts agree, as
    # they do at n*d through phi, and every witness is carried to a witness
    for spec, n, d in GRID + LARGE:
        verdict = is_simple(spec, n, d).simple
        assert is_simple(spec, n, d + n - 1).simple == is_simple(spec, n, n * d).simple == verdict
        if verdict:
            continue
        w = build_witness(spec, n, d)
        pairs = tuple((transport(a), transport(b)) for a, b in w.pairs)
        assert verify_witness(BracketWitness(spec, n, d + n - 1, pairs))

import random
from fractions import Fraction

import pytest

from leavitt import (
    CohnElement,
    FieldSpec,
    LeavittElement,
    Monomial,
    Scalar,
    Word,
    ideal_generator,
    parse_element,
    random_element,
    x_gen,
    x_word,
    y_gen,
    y_word,
)

from helpers import oracle_mul, random_cohn, random_monomial, random_scalar

Q = FieldSpec(0)
F2 = FieldSpec(2)
F3 = FieldSpec(3)
F5 = FieldSpec(5)


def mono(xs, ys, n=3):
    return Monomial(Word(xs, n), Word(ys, n))


def elem(xs, ys, spec=Q, n=3, coeff=None):
    return CohnElement.from_monomial(mono(xs, ys, n), spec, coeff)


# --- module structure ---------------------------------------------------


def test_char2_cancellation_in_addition():
    a = elem((1,), (), F2, 2)
    assert (a + a).is_zero()


def test_additive_identity():
    a = random_cohn(3, Q, random.Random(0))
    assert CohnElement.zero(3, Q) + a == a


def test_scaling():
    a = elem((), (2,)).scale(Scalar(Q, 3))
    assert a.terms[mono((), (2,))] == Scalar(Q, 3)
    assert a.scale(Q.zero()).is_zero()


def test_constructor_rejects_a_non_scalar_coefficient():
    with pytest.raises(TypeError, match="int"):
        CohnElement(Q, 2, {mono((1,), (), 2): 3})


def test_constructor_rejects_a_non_monomial_key():
    with pytest.raises(TypeError, match="tuple"):
        CohnElement(Q, 2, {((1,), ()): Q.one()})


def test_mismatched_contexts_rejected():
    with pytest.raises(ValueError):
        elem((1,), (), Q, 2) + elem((1,), (), Q, 3)
    with pytest.raises(ValueError):
        elem((1,), (), F2, 2) + elem((1,), (), F3, 2)
    with pytest.raises(ValueError):
        elem((1,), (), F2, 2) * elem((1,), (), F3, 2)


# --- multiplication ------------------------------------------------------


def test_y_word_times_reversed_x_word_is_one():
    assert y_word(Word((1, 2), 3), Q) * x_word(Word((2, 1), 3), Q) == CohnElement.one(3, Q)


def test_orthogonal_generators_multiply_to_zero():
    assert (elem((1,), (2,)) * elem((3,), (1,))).is_zero()


def test_partial_overlap_moves_remainder():
    assert elem((1,), (2,)) * elem((2, 3), (1,)) == elem((1, 3), (1,))


def test_remainder_moves_to_y_side():
    # rev(J) = (2,3), K = (2): leftover (3) reversed onto the y side
    assert elem((1,), (3, 2)) * elem((2,), (1,)) == elem((1,), (3, 1))


def test_product_matches_string_rewriting_oracle():
    rng = random.Random(17)
    cases = set()
    for _ in range(400):
        n = rng.randint(2, 4)
        a = random_monomial(n, 3, rng)
        b = random_monomial(n, 3, rng)
        got = CohnElement.from_monomial(a, Q) * CohnElement.from_monomial(b, Q)
        expected = oracle_mul(a, b)
        if expected is None:
            cases.add("zero")
            assert got.is_zero()
        else:
            cases.add("xside" if len(a.ys) <= len(b.xs) else "yside")
            assert got == CohnElement.from_monomial(expected, Q)
    assert cases == {"zero", "xside", "yside"}


def _random_terms(n, spec, rng):
    """A term map of 5 to 15 distinct monomials with nonzero coefficients."""
    p, size, terms = spec.characteristic, rng.randint(5, 15), {}
    while len(terms) < size:
        if p == 0:
            value = Fraction(rng.choice([i for i in range(-30, 31) if i]), rng.randint(1, 12))
        else:
            value = rng.randint(1, p - 1)
        terms[random_monomial(n, 3, rng)] = Scalar(spec, value)
    return terms


@pytest.mark.parametrize("p", [0, 2, 7, 2**61 - 1])
def test_multi_term_product_matches_the_oracle(p):
    spec = FieldSpec(p)
    rng = random.Random(67 + p % 1000)
    for _ in range(40):
        n = rng.randint(2, 4)
        ta, tb = _random_terms(n, spec, rng), _random_terms(n, spec, rng)
        expected = {}
        for ma, ca in ta.items():
            for mb, cb in tb.items():
                m = oracle_mul(ma, mb)
                if m is not None:
                    expected[m] = expected.get(m, spec.zero()) + ca * cb
        a, b = CohnElement(spec, n, ta), CohnElement(spec, n, tb)
        ab = a * b
        assert ab == CohnElement(spec, n, expected)
        for x in (a, b, ab):
            rebuilt = CohnElement(spec, n, x.terms)
            assert rebuilt == x and hash(rebuilt) == hash(x)
            assert parse_element(str(x), n, spec) == x


def test_multiplication_is_associative():
    rng = random.Random(23)
    for _ in range(150):
        n = rng.randint(2, 3)
        spec = FieldSpec(rng.choice((0, 2, 5)))
        a = random_cohn(n, spec, rng)
        b = random_cohn(n, spec, rng)
        c = random_cohn(n, spec, rng)
        assert (a * b) * c == a * (b * c)


def test_int_scaling_operators():
    a = elem((1,), ())
    assert 3 * a == a * 3
    assert (2 * a).terms[mono((1,), ())] == Scalar(Q, 2)


def test_power():
    a = x_gen(2, 3, Q)
    assert a ** 3 == x_word(Word((2, 2, 2), 3), Q)
    with pytest.raises(ValueError):
        a ** 0


# --- bracket --------------------------------------------------------------


def test_bracket_is_alternating():
    rng = random.Random(29)
    for _ in range(50):
        a = random_cohn(3, F5, rng)
        assert a.bracket(a).is_zero()


def test_bracket_of_x_and_y_generator():
    got = x_gen(1, 3, Q).bracket(y_gen(1, 3, Q))
    assert got == elem((1,), (1,)) - CohnElement.one(3, Q)


def test_identity_is_central():
    rng = random.Random(31)
    one = CohnElement.one(3, Q)
    for _ in range(50):
        b = random_cohn(3, Q, rng)
        assert one.bracket(b).is_zero()


def test_bracket_bilinear_and_jacobi():
    rng = random.Random(37)
    for _ in range(60):
        spec = FieldSpec(rng.choice((0, 2, 3)))
        a, b, c = (random_cohn(2, spec, rng) for _ in range(3))
        s = random_scalar(spec, rng)
        assert (a + b).bracket(c) == a.bracket(c) + b.bracket(c)
        assert a.scale(s).bracket(b) == a.bracket(b).scale(s)
        jacobi = (
            a.bracket(b).bracket(c)
            + b.bracket(c).bracket(a)
            + c.bracket(a).bracket(b)
        )
        assert jacobi.is_zero()


# --- trace ----------------------------------------------------------------


def test_trace_examples():
    assert CohnElement.one(3, Q).trace() == Q.one()
    assert elem((1, 2), (2, 1)).trace() == Q.one()
    assert elem((1,), (2,)).trace() == Q.zero()
    assert elem((1, 2), (1, 2)).trace() == Q.zero()


def test_trace_is_symmetric_on_random_pairs():
    rng = random.Random(41)
    for _ in range(300):
        n = rng.randint(2, 4)
        spec = FieldSpec(rng.choice((0, 2, 3, 5)))
        a = random_cohn(n, spec, rng, max_len=4)
        b = random_cohn(n, spec, rng, max_len=4)
        assert (a * b).trace() == (b * a).trace()


def test_trace_cancellation_identities():
    rng = random.Random(43)
    for _ in range(200):
        n = rng.randint(2, 4)
        A = Word(tuple(rng.randint(1, n) for _ in range(rng.randint(0, 3))), n)
        B = Word(tuple(rng.randint(1, n) for _ in range(rng.randint(0, 3))), n)
        C = Word(tuple(rng.randint(1, n) for _ in range(rng.randint(0, 3))), n)
        i = Word((rng.randint(1, n),), n)
        base = CohnElement.from_monomial(Monomial(B, C), Q).trace()
        assert CohnElement.from_monomial(Monomial(A * B, C * A.rev()), Q).trace() == base
        assert CohnElement.from_monomial(Monomial(A.rev() * B, C * A), Q).trace() == base
        left = CohnElement.from_monomial(Monomial(A * i, i * B), Q).trace()
        assert left == CohnElement.from_monomial(Monomial(A, B), Q).trace()


def test_trace_vanishes_on_the_ideal_when_char_divides_n_minus_1():
    rng = random.Random(47)
    for n, p in ((3, 2), (4, 3)):
        spec = FieldSpec(p)
        g = ideal_generator(n, spec)
        for _ in range(100):
            a = random_cohn(n, spec, rng)
            b = random_cohn(n, spec, rng)
            assert (a * g * b).trace().is_zero()


# --- ideal generator --------------------------------------------------------


def test_ideal_generator_shape():
    g = ideal_generator(2, Q)
    expected = (
        CohnElement.one(2, Q)
        - elem((1,), (1,), Q, 2)
        - elem((2,), (2,), Q, 2)
    )
    assert g == expected
    assert len(g.terms) == 3


def test_ideal_generator_trace():
    assert ideal_generator(3, F2).trace().is_zero()
    assert ideal_generator(3, Q).trace() == Scalar(Q, -2)


# --- grading ----------------------------------------------------------------


def test_degree_of_monomial():
    assert mono((1, 2), (1,)).degree == 1


def test_degree_split_of_identity():
    one = CohnElement.one(3, Q)
    assert one.degree_split() == {0: one}


def test_degree_split_example():
    a = elem((1,), ()) + elem((), (1,))
    split = a.degree_split()
    assert set(split) == {1, -1}
    assert split[1] == elem((1,), ())
    assert split[-1] == elem((), (1,))


def test_degree_split_parts_sum_back():
    rng = random.Random(53)
    for _ in range(100):
        a = random_cohn(3, Q, rng, max_len=4, max_terms=5)
        total = CohnElement.zero(3, Q)
        for d, part in a.degree_split().items():
            assert all(m.degree == d for m in part.terms)
            total = total + part
        assert total == a


def test_product_degrees_are_sums_of_factor_degrees():
    rng = random.Random(59)
    for _ in range(100):
        a = random_cohn(2, Q, rng)
        b = random_cohn(2, Q, rng)
        da = set(a.degree_split())
        db = set(b.degree_split())
        for d in (a * b).degree_split():
            assert d in {x + y for x in da for y in db}


# --- random elements ---------------------------------------------------------


def test_random_element_is_reproducible():
    a = random_element(3, F5, 3, 4, seed=99)
    b = random_element(3, F5, 3, 4, seed=99)
    assert a == b


def test_random_element_empty_when_no_terms():
    assert random_element(3, Q, 3, 0, seed=1).is_zero()


def test_random_element_respects_bounds():
    for seed in range(20):
        a = random_element(4, Q, 2, 5, seed=seed)
        assert len(a.terms) <= 5
        for m in a.terms:
            assert len(m.xs) <= 2 and len(m.ys) <= 2


# --- text forms ----------------------------------------------------------------


def test_canonical_rendering():
    assert str(CohnElement.zero(3, Q)) == "0"
    assert str(CohnElement.one(3, Q)) == "1"
    assert str(ideal_generator(2, Q)) == "1 - x[1]*y[1] - x[2]*y[2]"
    assert str(elem((1, 2), (2, 1))) == "x[1,2]*y[2,1]"
    assert str(elem((), (2,), coeff=Scalar(Q, 3))) == "3*y[2]"
    assert str(elem((1,), (), coeff=Scalar(Q, Fraction(-1, 2)))) == "-1/2*x[1]"


def test_rendering_orders_terms_by_degree_then_lenlex():
    a = elem((), (1,)) + elem((1, 1), ()) + CohnElement.one(3, Q)
    assert str(a) == "y[1] + 1 + x[1,1]"


def test_parse_element_round_trip():
    rng = random.Random(61)
    for _ in range(100):
        n = rng.randint(2, 4)
        spec = FieldSpec(rng.choice((0, 2, 5)))
        a = random_cohn(n, spec, rng, max_len=3, max_terms=4)
        assert parse_element(str(a), n, spec) == a


def test_parse_element_accepts_products_of_blocks():
    got = parse_element("y[1,2]*x[2,1]", 3, Q)
    assert got == CohnElement.one(3, Q)
    assert parse_element("2*x[1]*x[2]", 3, Q) == elem((1, 2), (), coeff=Scalar(Q, 2))


def test_parse_element_rejects_garbage():
    for bad in ("", "x[", "x[]", "1 +", "* x[1]", "x[1] y[2]", "q"):
        with pytest.raises(ValueError):
            parse_element(bad, 3, Q)


@pytest.mark.parametrize(
    "text, n, p, error, message",
    [
        ("x[1] + 2*y[1,3]", 2, 0, ValueError, "letter 3 outside alphabet [1, 2]"),
        ("x[0]", 3, 5, ValueError, "letter 0 outside alphabet [1, 3]"),
        ("1/0*x[1]", 2, 0, ZeroDivisionError, "Fraction(1, 0)"),
        ("x[1] - 2/5", 2, 5, ZeroDivisionError, "division by zero in F5"),
        ("x[]", 2, 0, ValueError, "empty generator word in 'x[]'"),
        ("x[1]*", 2, 0, ValueError, "dangling operator in element text"),
        ("x[1] + ", 2, 3, ValueError, "dangling operator in element text"),
        ("x[1]", 1, 0, ValueError, "alphabet size must be at least 2, got 1"),
    ],
)
def test_parse_element_error_messages(text, n, p, error, message):
    with pytest.raises(error) as info:
        parse_element(text, n, FieldSpec(p))
    assert type(info.value) is error and str(info.value) == message


def _assert_canonical(e):
    p = e.spec.characteristic
    for (xs, ys), v in e._terms.items():
        assert all(type(i) is int for i in xs + ys)
        assert type(v) is (int if p else Fraction) and v != 0
        assert not p or 0 < v < p


def test_builders_give_canonical_raw_terms():
    rng = random.Random(67)
    for p in (0, 2, 5, 7):
        spec = FieldSpec(p)
        for e in (CohnElement.one(3, spec), x_gen(2, 3, spec), y_gen(3, 3, spec), ideal_generator(3, spec)):
            _assert_canonical(e)
        for _ in range(30):
            a = random_cohn(3, spec, rng)
            k = rng.randint(-9, 9)
            scaled = a.scale(spec.from_int(k))
            for got, want in ((-a, a.scale(-spec.one())), (a * k, scaled), (k * a, scaled)):
                assert got == want
                _assert_canonical(got)
            _assert_canonical(parse_element(str(a), 3, spec))
            _assert_canonical(parse_element(f"{k}*x[1]*y[2] - 1/3*y[1] + 2", 3, spec))


def test_builders_keep_their_input_checks():
    for build in (CohnElement.one, CohnElement.zero, ideal_generator):
        with pytest.raises(ValueError, match="alphabet size must be at least 2, got 1"):
            build(1, Q)
    for gen in (x_gen, y_gen, LeavittElement.x_gen, LeavittElement.y_gen):
        with pytest.raises(ValueError, match=r"letter 3 outside alphabet \[1, 2\]"):
            gen(3, 2, Q)
        with pytest.raises(ValueError, match=r"letter 0 outside alphabet \[1, 2\]"):
            gen(0, 2, Q)

import random
import time
from fractions import Fraction

import pytest

from leavitt import (
    CohnElement,
    FieldSpec,
    LeavittElement,
    Monomial,
    Scalar,
    Word,
    dim_probe,
    ideal_generator,
    matrix_from_strings,
    normal_form,
    parse_element,
    x_gen,
    x_word,
    y_gen,
    y_word,
)
from leavitt import cohn as cohn_module
from leavitt.cohn import _Element

from helpers import assert_canonical, oracle_mul, random_cohn, random_element, random_monomial, random_scalar

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
    with pytest.raises(ValueError, match="^monomial alphabet 3 does not match element alphabet 2$"):
        CohnElement(Q, 2, {mono((1,), (), 3): Q.one()})
    with pytest.raises(ValueError, match="^coefficient field F2 does not match element field Q$"):
        CohnElement(Q, 2, {mono((1,), (), 2): F2.one()})


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
        expected, expected_ba = {}, {}
        for ma, ca in ta.items():
            for mb, cb in tb.items():
                for out, m in ((expected, oracle_mul(ma, mb)), (expected_ba, oracle_mul(mb, ma))):
                    if m is not None:
                        out[m] = out.get(m, spec.zero()) + ca * cb
        a, b = CohnElement(spec, n, ta), CohnElement(spec, n, tb)
        ab = a * b
        assert ab == CohnElement(spec, n, expected)
        bracket = a.bracket(b)
        assert bracket == ab - CohnElement(spec, n, expected_ba)
        for x in (a, b, ab, bracket):
            assert_canonical(x)
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
    s = Scalar(Q, Fraction(-2, 3))
    leavitt = normal_form(a + y_gen(2, 3, Q))
    for x in (a, leavitt):
        assert s * x == x * s == x.scale(s)
        with pytest.raises(ValueError, match="mismatched fields"):
            Scalar(F5, 2) * x
    with pytest.raises(TypeError, match="unsupported operand"):
        s * 3


def test_power():
    a = x_gen(2, 3, Q)
    assert a ** 3 == x_word(Word((2, 2, 2), 3), Q)
    with pytest.raises(ValueError):
        a ** 0


def test_power_makes_about_two_products_per_bit_of_the_exponent(monkeypatch):
    calls = []
    sum_products = _Element._sum_products

    def counting(*args):
        calls.append(1)
        return sum_products(*args)

    monkeypatch.setattr(_Element, "_sum_products", staticmethod(counting))
    assert x_gen(1, 2, Q) ** 1000 == x_word(Word((1,) * 1000, 2), Q)
    assert 0 < len(calls) <= 2 * 9  # 2 * floor(log2(1000))


@pytest.mark.parametrize("kind", [CohnElement, LeavittElement], ids=lambda k: k.__name__)
def test_huge_powers_of_one_and_zero_finish_at_once(kind):
    one, zero = kind.one(2, Q), kind.zero(2, Q)
    start = time.perf_counter()
    assert one ** 10**18 == one
    assert zero ** 10**18 == zero
    assert time.perf_counter() - start < 0.5


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


def _pair_case(j, k):
    """Which branch of the product's pair loop a left y-word j and right x-word k take."""
    if not j:
        return "empty J"
    if not k:
        return "empty K"
    if k[0] != j[-1]:
        return "first-letter miss"
    return "|J| < |K|" if len(j) < len(k) else "|J| = |K|" if len(j) == len(k) else "|J| > |K|"


@pytest.mark.parametrize("p", [0, 2, 7, 2**61 - 1])
def test_bracket_matches_the_oracle_in_both_orders(p):
    spec = FieldSpec(p)
    rng = random.Random(71 + p % 1000)
    cases = set()
    for _ in range(40):
        n = rng.randint(2, 4)
        # one-term factors take the unindexed scan, larger ones the index
        ta, tb = (
            {random_monomial(n, 6, rng): random_scalar(spec, rng, nonzero=True)
             for _ in range(rng.choice((1, rng.randint(2, 8))))}
            for _ in range(2)
        )
        expected = {}
        for left, right, sign in ((ta, tb, spec.one()), (tb, ta, -spec.one())):
            for ma, ca in left.items():
                for mb, cb in right.items():
                    cases.add(_pair_case(ma.ys.letters, mb.xs.letters))
                    m = oracle_mul(ma, mb)
                    if m is not None:
                        expected[m] = expected.get(m, spec.zero()) + sign * ca * cb
        a, b = CohnElement(spec, n, ta), CohnElement(spec, n, tb)
        want = CohnElement(spec, n, expected)
        assert a.bracket(b) == want
        assert b.bracket(a) == -want
    assert cases == {"empty J", "empty K", "first-letter miss", "|J| < |K|", "|J| = |K|", "|J| > |K|"}


def test_leavitt_bracket_is_the_difference_of_the_reduced_products():
    rng = random.Random(73)
    for _ in range(60):
        n = rng.randint(2, 3)
        spec = FieldSpec(rng.choice((0, 2, 5)))
        a, b = (random_cohn(n, spec, rng, max_len=4, max_terms=6) for _ in range(2))
        got = normal_form(a).bracket(normal_form(b))
        assert got == normal_form(a * b) - normal_form(b * a)


def test_bracket_is_the_commutator_and_antisymmetric():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def pairs(draw):
        n = draw(st.integers(2, 3))
        spec = FieldSpec(draw(st.sampled_from((0, 2, 7))))
        word = st.lists(st.integers(1, n), max_size=4).map(lambda w: Word(w, n))
        if spec.characteristic:
            value = st.integers(1, spec.characteristic - 1)
        else:
            value = st.builds(Fraction, st.sampled_from((-3, -2, -1, 1, 2, 3)), st.integers(1, 4))
        terms = st.dictionaries(st.builds(Monomial, word, word), value.map(lambda v: Scalar(spec, v)), max_size=6)
        return CohnElement(spec, n, draw(terms)), CohnElement(spec, n, draw(terms))

    @hypothesis.settings(derandomize=True, max_examples=150, deadline=None, database=None)
    @hypothesis.given(pairs())
    def check(pair):
        a, b = pair
        assert a.bracket(b) == a * b - b * a == -(b.bracket(a))

    check()


@pytest.mark.parametrize("operand", [3, Scalar(Q, 3), LeavittElement.x_gen(1, 3, Q)])
def test_bracket_rejects_an_operand_that_is_not_a_cohn_element(operand):
    with pytest.raises(TypeError, match=f"expected CohnElement, got {type(operand).__name__}"):
        x_gen(1, 3, Q).bracket(operand)


def test_subtraction_absorbs_the_negated_terms():
    a = elem((1,), (2,)) + elem((), (), coeff=Scalar(Q, 2))
    b = elem((1,), (2,)) + elem((2,), ())
    assert a - b == elem((), (), coeff=Scalar(Q, 2)) - elem((2,), ())
    assert (a - a).is_zero()
    f = elem((1,), (), F5, coeff=Scalar(F5, 2))
    assert f - elem((1,), (), F5, coeff=Scalar(F5, 4)) == elem((1,), (), F5, coeff=Scalar(F5, 3))


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
    # a term whose blocks multiply to zero, a zero factor, and factors reduced mod p
    assert parse_element("y[1]*x[2]*x[3] + x[1]", 3, Q) == elem((1,), ())
    assert parse_element("0*x[1] - y[2]", 3, F5) == elem((), (2,), F5, coeff=Scalar(F5, 4))
    assert parse_element("3*x[1]*4*y[2,1]*x[1]", 3, F5) == elem((1,), (2,), F5, coeff=Scalar(F5, 2))


def test_parse_element_rejects_garbage():
    for bad in ("", "x[", "x[]", "1 +", "* x[1]", "x[1] y[2]", "q"):
        with pytest.raises(ValueError):
            parse_element(bad, 3, Q)


@pytest.mark.parametrize(
    "text, n, p, error, message",
    [
        ("x[1] + 2*y[1,3]", 2, 0, ValueError, "letter 3 outside alphabet [1, 2]"),
        ("x[0]", 3, 5, ValueError, "letter 0 outside alphabet [1, 3]"),
        ("1/0*x[1]", 2, 0, ZeroDivisionError, "division by zero in Q"),
        ("x[1] - 2/5", 2, 5, ZeroDivisionError, "division by zero in F5"),
        ("x[]", 2, 0, ValueError, "empty generator word in 'x[]'"),
        ("x[1]*", 2, 0, ValueError, "dangling operator in element text"),
        ("x[1] + ", 2, 3, ValueError, "dangling operator in element text"),
        ("x[1]", 1, 0, ValueError, "alphabet size must be at least 2, got 1"),
        ("x[1] q", 2, 0, ValueError, "bad element text at position 4: ' q'"),
        ("x[1,,2]", 2, 0, ValueError, "bad generator word in 'x[1,,2]'"),
        ("y[1 2]", 2, 0, ValueError, "bad generator word in 'y[1 2]'"),
        ("2/", 2, 0, ValueError, "unexpected '/' in element text"),
        ("x[1]/2", 2, 0, ValueError, "unexpected '/' in element text"),
        ("1/2/3", 2, 0, ValueError, "unexpected '/' in element text"),
        ("/2*x[1]", 2, 0, ValueError, "unexpected '/' in element text"),
        ("007/0*x[1]", 2, 0, ZeroDivisionError, "division by zero in Q"),
        # text that does not split into tokens is reported before any other error
        ("* x[1] q", 2, 0, ValueError, "bad element text at position 6: ' q'"),
        ("x[3] x[,]", 2, 0, ValueError, "bad generator word in 'x[,]'"),
        ("x[1] + x[]", 1, 0, ValueError, "empty generator word in 'x[]'"),
        # digits are ASCII, in coefficients as in letters
        ("\u0663*x[1]", 2, 0, ValueError, "bad element text at position 0: '\u0663*x[1]'"),
        ("x[1]*\u0663", 2, 0, ValueError, "bad element text at position 5: '\u0663'"),
        ("x[\u0661]", 2, 0, ValueError, "bad element text at position 0: 'x[\u0661]'"),
    ],
)
def test_parse_element_error_messages(text, n, p, error, message):
    with pytest.raises(error) as info:
        parse_element(text, n, FieldSpec(p))
    assert type(info.value) is error and str(info.value) == message


def test_builders_give_canonical_raw_terms():
    rng = random.Random(67)
    for p in (0, 2, 5, 7):
        spec = FieldSpec(p)
        for e in (CohnElement.one(3, spec), x_gen(2, 3, spec), y_gen(3, 3, spec), ideal_generator(3, spec),
                  x_word(Word((1, 2), 3), spec), y_word(Word((3,), 3), spec)):
            assert_canonical(e)
            assert e._den == 1
        for _ in range(30):
            a = random_cohn(3, spec, rng)
            k = rng.randint(-9, 9)
            scaled = a.scale(spec.from_int(k))
            for got, want in ((-a, a.scale(-spec.one())), (a * k, scaled), (k * a, scaled)):
                assert got == want
                assert_canonical(got)
            assert_canonical(a)
            assert_canonical(parse_element(str(a), 3, spec))
            assert_canonical(parse_element(f"{k}*x[1]*y[2] - 1/3*y[1] + 2", 3, spec))


def test_rational_elements_equal_by_construction_are_equal():
    x1, y2 = x_gen(1, 3, Q), y_gen(2, 3, Q)
    half = parse_element("1/2*x[1]", 3, Q)
    third = parse_element("1/3*x[1] + 2/3*y[2]", 3, Q)
    for got in (half + half, half * 2, half.scale(Scalar(Q, 2)),
                parse_element("1/2*x[1] + 1/2*x[1]", 3, Q), parse_element("2/4*x[1] + 3/6*x[1]", 3, Q),
                third * 3 - 2 * y2, (third - y2.scale(Scalar(Q, Fraction(2, 3)))) * 3,
                parse_element("1/2*x[1] + 1/3*y[2]", 3, Q).degree_split()[1] * 2):
        assert got == x1 and hash(got) == hash(x1) and str(got) == "x[1]"
        assert_canonical(got)
    a = parse_element("1/2*x[1]*y[2] - 2/3*y[1] + 5/6", 3, Q)
    b = parse_element("3/4*x[2] + 1/6*x[1]*y[1,2]", 3, Q)
    for got, want in (((a + b) - b, a), ((a - b) + b, a), (a.bracket(b) + b * a, a * b)):
        assert got == want and hash(got) == hash(want)
    # the junction x3 y3 expands to 1 - x1 y1 - x2 y2, which cancels every half but the constant
    nf = normal_form(parse_element("1/2 + 1/2*x[1]*y[1] + 1/2*x[2]*y[2] + 1/2*x[3]*y[3]", 3, Q))
    one = LeavittElement.one(3, Q)
    assert nf == one and hash(nf) == hash(one) and str(nf) == "1"
    assert_canonical(nf)


def test_rational_arithmetic_builds_no_fraction(monkeypatch):
    a = parse_element("1/2*x[1]*y[2] - 2/3*y[1] + 5/6", 2, Q)
    b = parse_element("3/4*x[2] + 1/6*y[2]*x[1]*y[1,2] - 1/2*x[1]*y[1]", 2, Q)

    def refuse(*args):
        raise AssertionError("a Fraction was built")

    monkeypatch.setattr(cohn_module, "Fraction", refuse)
    ab, bracket, total, nf = a * b, a.bracket(b), a + b, normal_form(a * b)
    text = str(ab)
    monkeypatch.undo()
    want = {}
    for ma, ca in a.terms.items():
        for mb, cb in b.terms.items():
            m = oracle_mul(ma, mb)
            if m is not None:
                want[m] = want.get(m, Q.zero()) + ca * cb
    assert ab == CohnElement(Q, 2, want) and text == str(CohnElement(Q, 2, want))
    assert bracket == ab - b * a and total - b == a and nf == normal_form(CohnElement(Q, 2, want))


def test_builders_keep_their_input_checks():
    for build in (CohnElement.one, CohnElement.zero, ideal_generator):
        with pytest.raises(ValueError, match="alphabet size must be at least 2, got 1"):
            build(1, Q)
    for gen in (x_gen, y_gen, LeavittElement.x_gen, LeavittElement.y_gen):
        with pytest.raises(ValueError, match=r"letter 3 outside alphabet \[1, 2\]"):
            gen(3, 2, Q)
        with pytest.raises(ValueError, match=r"letter 0 outside alphabet \[1, 2\]"):
            gen(0, 2, Q)


@pytest.mark.parametrize(
    "build",
    [
        CohnElement.zero,
        CohnElement.one,
        LeavittElement.zero,
        LeavittElement.one,
        lambda n, spec: x_gen(1, n, spec),
        lambda n, spec: y_gen(1, n, spec),
        lambda n, spec: LeavittElement.x_gen(1, n, spec),
        lambda n, spec: LeavittElement.y_gen(1, n, spec),
        lambda n, spec: x_word(Word((1, 2), n), spec),
        lambda n, spec: y_word(Word((1, 2), n), spec),
        lambda n, spec: CohnElement(spec, n, {}),
        ideal_generator,
        lambda n, spec: parse_element("x[1]", n, spec),
        lambda n, spec: matrix_from_strings([["x[1]"]], n, spec),
        lambda n, spec: dim_probe(2, n, spec),
    ],
    ids=["zero", "one", "leavitt-zero", "leavitt-one", "x_gen", "y_gen", "leavitt-x_gen", "leavitt-y_gen",
         "x_word", "y_word", "constructor", "ideal_generator", "parse_element", "matrix_from_strings",
         "dim_probe"],
)
@pytest.mark.parametrize("spec, shown", [(5, "int: 5"), ("Q", "str: 'Q'")], ids=["int", "str"])
def test_builders_reject_a_spec_that_is_not_a_field_spec_after_checking_n(build, spec, shown):
    with pytest.raises(ValueError, match="^alphabet size must be at least 2, got 1$"):
        build(1, spec)
    with pytest.raises(TypeError, match=f"^spec must be a FieldSpec, got {shown}$"):
        build(2, spec)

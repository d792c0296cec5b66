import itertools
import random
from fractions import Fraction

import pytest

import leavitt.cohn as cohn_module
import leavitt.leavitt as leavitt_module
from leavitt import (
    CohnElement,
    FieldSpec,
    LeavittElement,
    Monomial,
    RewriteStep,
    Word,
    dim_probe,
    ideal_generator,
    independence_check,
    normal_form,
    normal_form_with_trace,
    parse_element,
    x_word,
    y_word,
)

from helpers import letter_keys, random_cohn, random_scalar, worklist_normal_form

Q = FieldSpec(0)
F2 = FieldSpec(2)
F3 = FieldSpec(3)
F7 = FieldSpec(7)


def mono_elem(xs, ys, spec=Q, n=2):
    return CohnElement.from_monomial(Monomial(Word(xs, n), Word(ys, n)), spec)


# --- normal form ------------------------------------------------------------


def test_top_junction_rewrites_for_n2():
    got = normal_form(mono_elem((2,), (2,)))
    expected = CohnElement.one(2, Q) - mono_elem((1,), (1,))
    assert got.rep == expected


def test_ideal_generator_normalizes_to_zero():
    for n, spec in ((2, Q), (3, Q), (4, F3)):
        assert normal_form(ideal_generator(n, spec)).is_zero()


def test_junction_free_elements_are_untouched():
    a = mono_elem((1,), (2,))
    assert normal_form(a).rep == a


def test_normal_form_is_idempotent():
    rng = random.Random(3)
    for _ in range(100):
        n = rng.randint(2, 3)
        spec = FieldSpec(rng.choice((0, 2, 5)))
        nf = normal_form(random_cohn(n, spec, rng, max_len=4, max_terms=4))
        assert normal_form(nf.rep) == nf


def test_confluence_under_randomized_rewrite_orders():
    rng = random.Random(5)
    for trial in range(100):
        n = rng.randint(2, 3)
        spec = FieldSpec(rng.choice((0, 2, 3)))
        c = random_cohn(n, spec, rng, max_len=4, max_terms=4)
        first = worklist_normal_form(c, rng=random.Random(1000 + trial))
        second = worklist_normal_form(c, rng=random.Random(2000 + trial))
        assert first == second
        nf = normal_form(c)
        assert first == nf
        assert normal_form(nf.rep) == nf


def ideal_combination(steps, n, spec):
    """Sum of coefficient * x_left * (1 - sum_i x_i y_i) * y_right over the steps."""
    g = ideal_generator(n, spec)
    acc = {}
    for step in steps:
        term = x_word(step.left, spec) * g * y_word(step.right, spec)
        for m, v in term.scale(step.coefficient).terms.items():
            acc[m] = acc[m] + v if m in acc else v
    return CohnElement(spec, n, acc)


def test_rewrite_trace_witnesses_ideal_membership():
    rng = random.Random(7)
    for _ in range(60):
        n = rng.randint(2, 3)
        spec = FieldSpec(rng.choice((0, 2, 5)))
        c = random_cohn(n, spec, rng, max_len=4, max_terms=4)
        nf, steps = normal_form_with_trace(c)
        assert ideal_combination(steps, n, spec) == c - nf.rep


def chain_element(n, spec, rng):
    """Seeded terms c x_{A n^r} y_{n^s B} with r, s up to 60, plus terms
    whose chains collide with them: -c x_{A n^(r-1)} y_{n^(s-1) B} cancels
    the tail of the chain, and c x_{A n^(r-1) i} y_{i n^(s-1) B} cancels
    one replacement term of its first rewrite."""
    terms = {}

    def add(xs, ys, c):
        m = Monomial(Word(xs, n), Word(ys, n))
        terms[m] = terms[m] + c if m in terms else c

    for _ in range(rng.randint(1, 3)):
        # letters below n, so that the runs of n are exactly r and s long
        head = tuple(rng.randint(1, n - 1) for _ in range(rng.randint(0, 3)))
        tail = tuple(rng.randint(1, n - 1) for _ in range(rng.randint(0, 3)))
        r, s = rng.randint(1, 60), rng.randint(1, 60)
        c = random_scalar(spec, rng, nonzero=True)
        add(head + (n,) * r, (n,) * s + tail, c)
        if rng.random() < 0.5:
            add(head + (n,) * (r - 1), (n,) * (s - 1) + tail, -c)
        if rng.random() < 0.5:
            i = rng.randint(1, n - 1)
            add(head + (n,) * (r - 1) + (i,), (i,) + (n,) * (s - 1) + tail, c)
    return CohnElement(spec, n, terms)


def test_rewrite_trace_lists_each_step_in_term_order():
    c = parse_element("2*x[1,3,3]*y[3,3,2] + x[3]*y[3]", 3, Q)
    _, steps = normal_form_with_trace(c)
    minus_two, minus_one = Q.from_int(-2), Q.from_int(-1)
    assert steps == [
        RewriteStep(minus_two, Word((1, 3), 3), Word((3, 2), 3)),
        RewriteStep(minus_two, Word((1,), 3), Word((2,), 3)),
        RewriteStep(minus_one, Word((), 3), Word((), 3)),
    ]


def test_long_chains_and_cancellations_match_the_worklist():
    rng = random.Random(23)
    for n in (2, 3, 4):
        for spec in (Q, F2, F7):
            for _ in range(3):
                c = chain_element(n, spec, rng)
                nf, steps = normal_form_with_trace(c)
                assert nf == worklist_normal_form(c)
                assert ideal_combination(steps, n, spec) == c - nf.rep


def test_normal_form_is_multiplicative():
    rng = random.Random(11)
    for _ in range(80):
        n = rng.randint(2, 3)
        spec = FieldSpec(rng.choice((0, 2, 3)))
        a = random_cohn(n, spec, rng)
        b = random_cohn(n, spec, rng)
        assert normal_form(a * b) == normal_form(a) * normal_form(b)


def test_normal_form_preserves_the_grading():
    rng = random.Random(13)
    for _ in range(80):
        c = random_cohn(2, Q, rng, max_len=4, max_terms=4)
        split_then_reduce = {
            d: normal_form(part) for d, part in c.degree_split().items()
        }
        reduced = normal_form(c).rep.degree_split()
        for d, part in split_then_reduce.items():
            assert reduced.get(d, CohnElement.zero(2, Q)) == part.rep
        assert set(reduced) <= set(split_then_reduce)


def test_direct_construction_rejects_junction_representatives():
    with pytest.raises(ValueError):
        LeavittElement(mono_elem((2,), (2,)))


# --- quotient arithmetic -----------------------------------------------------


def test_leavitt_element_is_a_term_map_beside_the_cohn_element():
    # the quotient holds its normal form's map itself; rep is a view over it
    c = mono_elem((1,), (2,)) + CohnElement.one(2, Q)
    a = LeavittElement(c)
    assert LeavittElement.__slots__ == () and a._terms is c._terms
    assert not isinstance(a, CohnElement) and not isinstance(c, LeavittElement)
    assert a.rep == c and type(a.rep) is CohnElement and a.rep._terms is a._terms
    assert a != c and c != a
    assert hash(a) == hash(c) and repr(a) == "<LeavittElement n=2 over Q: 1 + x[1]*y[2]>"


def test_mixing_leavitt_and_cohn_operands_is_a_type_error():
    a = LeavittElement.x_gen(1, 2, Q)
    for op in (lambda: a + a.rep, lambda: a - a.rep, lambda: a * a.rep, lambda: a.bracket(a.rep)):
        with pytest.raises(TypeError, match="CohnElement"):
            op()


def test_product_of_generators_reduces():
    # x_n y_n = 1 - sum_{i<n} x_i y_i: a product with J and K both empty
    for n in (2, 3, 4):
        for spec in (Q, F2, F7):
            xn, yn = LeavittElement.x_gen(n, n, spec), LeavittElement.y_gen(n, n, spec)
            want = CohnElement.one(n, spec)
            for i in range(1, n):
                want = want - mono_elem((i,), (i,), spec, n)
            assert (xn * yn).rep == want


def test_products_expand_a_full_cancellation_in_closed_form(monkeypatch):
    # x_{133} y_{332} at n = 3, reached with J = K = () and with rev(J) = K = (1, 2)
    want = parse_element(
        "x[1]*y[2] - x[1,1]*y[1,2] - x[1,2]*y[2,2] - x[1,3,1]*y[1,3,2] - x[1,3,2]*y[2,3,2]", 3, Q
    )
    calls = []
    expand = cohn_module._expand
    monkeypatch.setattr(
        cohn_module, "_expand", lambda *args: calls.extend(letter_keys({args[:2]: None}, 3)) or expand(*args)
    )
    pairs = (
        (((1, 3, 3), ()), ((), (3, 3, 2))),
        (((1, 3, 3), (2, 1)), ((1, 2), (3, 3, 2))),
    )
    for (xs, ys), (ks, ls) in pairs:
        a = LeavittElement(mono_elem(xs, ys, n=3))
        b = LeavittElement(mono_elem(ks, ls, n=3))
        calls.clear()
        assert (a * b).rep == want
        # the pair loop expands the junction itself, once
        assert calls == [((1, 3, 3), (3, 3, 2))]


def test_bracket_sum_of_generator_pairs():
    for n in range(2, 6):
        for spec in (Q, F2, F3):
            total = LeavittElement.zero(n, spec)
            for i in range(1, n + 1):
                yi = LeavittElement.y_gen(i, n, spec)
                xi = LeavittElement.x_gen(i, n, spec)
                total = total + yi.bracket(xi)
            assert total == LeavittElement.one(n, spec) * (n - 1)


def test_nested_bracket_is_nonzero_in_char_2():
    x1 = LeavittElement.x_gen(1, 2, F2)
    x2 = LeavittElement.x_gen(2, 2, F2)
    assert not x1.bracket(x2).bracket(x1.bracket(x2 * x2)).is_zero()


# --- trace -------------------------------------------------------------------


def test_trace_of_identity():
    assert LeavittElement.one(3, F2).trace() == F2.one()


def test_trace_of_diagonal_monomial():
    a = normal_form(
        CohnElement.from_monomial(Monomial(Word((1,), 3), Word((1,), 3)), F2)
    )
    assert a.trace() == F2.one()


def test_trace_rejected_when_char_does_not_divide_n_minus_1():
    with pytest.raises(ValueError):
        LeavittElement.one(3, Q).trace()
    with pytest.raises(ValueError):
        LeavittElement.one(2, F2).trace()
    with pytest.raises(ValueError):
        LeavittElement.one(3, F3).trace()


def test_trace_is_representative_independent():
    rng = random.Random(17)
    for n, p in ((3, 2), (4, 3)):
        spec = FieldSpec(p)
        g = ideal_generator(n, spec)
        for _ in range(60):
            c = random_cohn(n, spec, rng)
            a = random_cohn(n, spec, rng)
            b = random_cohn(n, spec, rng)
            plain = normal_form(c)
            shifted = normal_form(c + a * g * b)
            assert plain == shifted
            assert plain.trace() == shifted.trace()


def test_trace_is_symmetric_in_the_quotient():
    rng = random.Random(19)
    for n, p in ((3, 2), (4, 3)):
        spec = FieldSpec(p)
        for _ in range(100):
            a = normal_form(random_cohn(n, spec, rng))
            b = normal_form(random_cohn(n, spec, rng))
            assert (a * b).trace() == (b * a).trace()


# --- independence -------------------------------------------------------------


def test_independence_examples():
    n = 2
    assert independence_check([Word((1,), n), Word((2,), n)])
    assert independence_check([Word((1,), n), Word((1, 1), n), Word((1, 1, 1), n)])
    assert independence_check([])


def test_independence_rejects_duplicates():
    with pytest.raises(ValueError):
        independence_check([Word((1,), 2), Word((1,), 2)])


def test_independence_rejects_what_is_not_a_word():
    with pytest.raises(TypeError, match="^expected Word, got tuple$"):
        independence_check([Word((1,), 2), (1,)])


def test_independence_check_eliminates_the_normal_forms(monkeypatch):
    rows = []
    eliminate = leavitt_module._linearly_independent
    monkeypatch.setattr(leavitt_module, "_linearly_independent", lambda r, p: rows.extend(r) or eliminate(r, p))
    assert independence_check([Word((1,), 2), Word((2, 1), 2)])
    assert [letter_keys(r, 2) for r in rows] == [{((1,), ()): 1}, {((2, 1), ()): 1}]


def test_independence_over_all_short_words():
    words = [Word((), 2)]
    frontier = [()]
    for _ in range(4):
        frontier = [seq + (i,) for seq in frontier for i in (1, 2)]
        words.extend(Word(seq, 2) for seq in frontier)
    assert independence_check(words)


@pytest.mark.parametrize("p", [2, 3])
def test_elimination_matches_a_search_over_all_combinations(p):
    # rows are dependent exactly when some nonzero coefficient vector sums them to zero
    rng = random.Random(p)
    monos = [((), ()), ((1,), ()), ((), (1,)), ((1,), (2,)), ((2, 1), ())]
    for _ in range(300):
        rows = [{m: rng.randrange(1, p) for m in rng.sample(monos, rng.randint(1, 3))}
                for _ in range(rng.randint(1, 4))]
        dependent = any(
            not any(sum(c * r.get(m, 0) for c, r in zip(cs, rows)) % p for m in monos)
            for cs in itertools.product(range(p), repeat=len(rows)) if any(cs)
        )
        assert leavitt_module._linearly_independent(rows, p) is not dependent, rows


def test_elimination_over_the_rationals():
    a = {((1,), ()): Fraction(1), ((), (1,)): Fraction(2)}
    b = {((), (1,)): Fraction(1, 2), ((), ()): Fraction(1)}
    a_minus_4b = {((1,), ()): Fraction(1), ((), ()): Fraction(-4)}
    assert leavitt_module._linearly_independent([a, b], 0)
    assert not leavitt_module._linearly_independent([a, b, a_minus_4b], 0)
    assert not leavitt_module._linearly_independent([b, a_minus_4b, a], 0)


def test_elimination_of_integer_numerators_is_exact():
    # rational elements store integer numerators; 49 * (1/49) is not 1 in floating point
    a = {((2,), ()): 49, ((1,), ()): 1}
    assert not leavitt_module._linearly_independent([a, dict(a)], 0)
    assert not leavitt_module._linearly_independent([a, {m: 3 * v for m, v in a.items()}], 0)
    assert leavitt_module._linearly_independent([a, {((2,), ()): 49, ((1,), ()): 2}], 0)


def test_dim_probe():
    assert dim_probe(1, 2, Q)
    assert dim_probe(10, 2, F2)
    assert dim_probe(10, 3, Q)
    with pytest.raises(ValueError):
        dim_probe(0, 2, Q)

"""Alphabets on both sides of a hex-width boundary.

A word is stored with one field of k hex digits per letter, k the number of
hex digits of n: k = 1 up to n = 15, and n = 16 is the first alphabet whose
letters take two digits, so that letters below 16 carry a leading zero in
their field.  n = 300 takes three.  Each check below reads the results only
through the public API and compares them with references that work on
letter tuples.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from helpers import oracle_mul, random_scalar, worklist_normal_form

from leavitt import (
    CohnElement,
    FieldSpec,
    LeavittElement,
    Monomial,
    Word,
    normal_form,
    parse_element,
)

ALPHABETS = (9, 10, 15, 16, 17, 300)
SPECS = (FieldSpec(0), FieldSpec(2), FieldSpec(7))


def _letter(n, rng):
    # the letters at the field's edges are drawn often: 1, 15, 16, n - 1 and n
    edges = [i for i in (1, 9, 10, 15, 16, 17, n - 1, n) if i <= n]
    return rng.choice(edges) if rng.random() < 0.6 else rng.randint(1, n)


def _word(n, rng, max_len):
    return tuple(_letter(n, rng) for _ in range(rng.randint(0, max_len)))


def _terms(n, spec, rng, size=4, max_len=3):
    terms = {}
    for _ in range(size):
        m = Monomial(Word(_word(n, rng, max_len), n), Word(_word(n, rng, max_len), n))
        terms[m] = random_scalar(spec, rng, nonzero=True)
    return terms


@pytest.mark.parametrize("n", ALPHABETS)
def test_products_and_brackets_match_the_string_rewriting_oracle(n):
    rng = random.Random(n)
    for spec in SPECS:
        for _ in range(25):
            ta, tb = _terms(n, spec, rng), _terms(n, spec, rng)
            ab, ba = {}, {}
            for ma, ca in ta.items():
                for mb, cb in tb.items():
                    for out, m in ((ab, oracle_mul(ma, mb)), (ba, oracle_mul(mb, ma))):
                        if m is not None:
                            out[m] = out.get(m, spec.zero()) + ca * cb
            a, b = CohnElement(spec, n, ta), CohnElement(spec, n, tb)
            want_ab, want_ba = CohnElement(spec, n, ab), CohnElement(spec, n, ba)
            assert a * b == want_ab and b * a == want_ba
            assert a.bracket(b) == want_ab - want_ba


@pytest.mark.parametrize("n", ALPHABETS)
def test_text_round_trips_and_the_terms_view_reads_back_its_monomials(n):
    rng = random.Random(100 + n)
    for spec in SPECS:
        for _ in range(25):
            terms = _terms(n, spec, rng, size=6, max_len=4)
            a = CohnElement(spec, n, terms)
            for x in (a, a * a, LeavittElement.x_gen(n, n, spec) * normal_form(a)):
                assert parse_element(str(x), n, spec) == (x.rep if isinstance(x, LeavittElement) else x)
            got = {m: c for m, c in a.terms.items()}
            assert got == {m: c for m, c in terms.items() if not c.is_zero()}
            for m, c in got.items():
                assert a.terms[m] == c and type(m.xs) is Word and m.xs.n == n


def test_a_leading_zero_in_a_letter_field_is_printed_as_the_letter():
    # at n = 16, the letter 1 is the field 01 and 16 is 10
    a = parse_element("x[1,16,1]*y[16,1] + 2*y[10,15,16] - x[1]", 16, FieldSpec(0))
    assert str(a) == "2*y[10,15,16] - x[1] + x[1,16,1]*y[16,1]"
    assert sorted(m.xs.letters + (0,) + m.ys.letters for m in a.terms) == [
        (0, 10, 15, 16), (1, 0), (1, 16, 1, 0, 16, 1)]
    assert str(parse_element("x[255,1]*y[1,255]", 256, FieldSpec(0))) == "x[255,1]*y[1,255]"


@pytest.mark.parametrize("n", ALPHABETS)
def test_trace_counts_the_monomials_whose_x_word_reverses_the_y_word(n):
    rng = random.Random(200 + n)
    for spec in SPECS:
        for _ in range(25):
            terms = _terms(n, spec, rng, size=5)
            for _ in range(2):
                w = _word(n, rng, 3)
                terms[Monomial(Word(w, n), Word(w[::-1], n))] = random_scalar(spec, rng, nonzero=True)
            want = spec.zero()
            for m, c in terms.items():
                if m.xs.letters == m.ys.letters[::-1]:
                    want = want + c
            assert CohnElement(spec, n, terms).trace() == want


@pytest.mark.parametrize("n", ALPHABETS)
def test_normal_form_matches_the_worklist_across_the_boundary(n):
    rng = random.Random(300 + n)
    for spec in SPECS:
        for _ in range(10):
            terms = _terms(n, spec, rng, size=3)
            for _ in range(2):
                head = tuple(rng.randint(1, n - 1) for _ in range(rng.randint(0, 2)))
                tail = tuple(rng.randint(1, n - 1) for _ in range(rng.randint(0, 2)))
                xs, ys = head + (n,) * rng.randint(1, 3), (n,) * rng.randint(1, 3) + tail
                terms[Monomial(Word(xs, n), Word(ys, n))] = random_scalar(spec, rng, nonzero=True)
            c = CohnElement(spec, n, terms)
            nf = normal_form(c)
            assert nf == worklist_normal_form(c)
            a, b = normal_form(CohnElement(spec, n, _terms(n, spec, rng))), nf
            assert a * b == worklist_normal_form(a.rep * b.rep)


def test_degree_split_reads_the_lengths_of_multi_digit_letters():
    a = parse_element("x[300,16,1]*y[2] + y[17,17] + 1/2", 300, FieldSpec(0))
    parts = a.degree_split()
    assert sorted(parts) == [-2, 0, 2]
    assert str(parts[2]) == "x[300,16,1]*y[2]" and str(parts[-2]) == "y[17,17]"
    assert parts[0].trace().value == Fraction(1, 2)


def test_a_junction_is_reported_with_its_letters():
    c = parse_element("x[1]*y[2] + x[3,16]*y[16,1]", 16, FieldSpec(0))
    message = r"^representative is not in normal form: junction monomial x\[3,16\]\*y\[16,1\]$"
    with pytest.raises(ValueError, match=message):
        LeavittElement(c)
    # 16 is the top letter only at n = 16; at n = 17 the same monomial has no junction
    d = parse_element(str(c), 17, FieldSpec(0))
    assert LeavittElement(d).rep == d

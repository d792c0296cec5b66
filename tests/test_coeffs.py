import random
from fractions import Fraction

import pytest

from leavitt import FieldSpec, Scalar, parse_scalar
from leavitt.coeffs import MAX_CHARACTERISTIC

from helpers import random_scalar

Q = FieldSpec(0)
F2 = FieldSpec(2)
F3 = FieldSpec(3)
F5 = FieldSpec(5)


def s(spec, v):
    return Scalar(spec, v)


def test_construction_rejects_non_prime_characteristic():
    for bad in (-1, 1, 4, 6, 9, 100):
        with pytest.raises(ValueError):
            FieldSpec(bad)
    for good in (0, 2, 3, 5, 7, 11, 101, 2**31 - 1):
        FieldSpec(good)


def test_construction_rejects_non_integer_characteristic():
    for bad in (2.0, 0.0, True, False, "2", Fraction(2), None):
        with pytest.raises(TypeError, match=type(bad).__name__):
            FieldSpec(bad)


def test_rational_addition():
    assert s(Q, Fraction(1, 2)) + s(Q, Fraction(1, 3)) == s(Q, Fraction(5, 6))


def test_residue_multiplication():
    assert s(F5, 3) * s(F5, 4) == s(F5, 2)


def test_residue_division():
    assert s(F5, 1) / s(F5, 2) == s(F5, 3)


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        s(Q, 1) / s(Q, 0)
    with pytest.raises(ZeroDivisionError):
        s(F3, 2) / s(F3, 0)


def test_mismatched_fields_rejected():
    with pytest.raises(ValueError):
        s(F2, 1) + s(F3, 1)
    with pytest.raises(ValueError):
        s(Q, 1) * s(F5, 1)


def test_from_int_examples():
    assert F2.from_int(1 - 3) == s(F2, 0)  # -(n-1) vanishes when p | n-1
    assert Q.from_int(7) == s(Q, 7)
    assert F3.from_int(-1) == s(F3, 2)


def test_char_divides_examples():
    assert F2.divides(2)
    assert not Q.divides(4)
    assert F5.divides(-5)
    assert Q.divides(0)


def test_char_divides_matches_from_int():
    rng = random.Random(7)
    for spec in (Q, F2, F3, F5, FieldSpec(7)):
        for _ in range(200):
            m = rng.randint(-50, 50)
            assert spec.divides(m) == spec.from_int(m).is_zero()


def test_field_axioms_on_random_triples():
    rng = random.Random(11)
    for p in (0, 2, 3, 5, 7):
        spec = FieldSpec(p)
        for _ in range(200):
            a, b, c = (random_scalar(spec, rng) for _ in range(3))
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a + b == b + a
            assert a * b == b * a
            assert a + spec.zero() == a
            assert a * spec.one() == a
            assert a + (-a) == spec.zero()
            if not b.is_zero():
                assert (a / b) * b == a
                assert b * b.inv() == spec.one()


def test_from_int_is_a_ring_homomorphism():
    rng = random.Random(13)
    for p in (0, 2, 3, 5, 7):
        spec = FieldSpec(p)
        for _ in range(200):
            a, b = rng.randint(-40, 40), rng.randint(-40, 40)
            assert spec.from_int(a + b) == spec.from_int(a) + spec.from_int(b)
            assert spec.from_int(a * b) == spec.from_int(a) * spec.from_int(b)


def test_canonical_form_invariants():
    v = s(Q, Fraction(4, -6))
    assert v.value.denominator > 0
    assert v.value == Fraction(-2, 3)
    assert s(F5, 12).value == 2
    assert s(F5, -1).value == 4


def test_scalar_text_forms():
    assert str(s(Q, Fraction(5, 6))) == "5/6"
    assert str(s(Q, 7)) == "7"
    assert str(s(F5, 3)) == "3 mod 5"


def test_parse_scalar_round_trip():
    for spec, texts in (
        (Q, ["5/6", "-2/3", "7", "0", "-11"]),
        (F5, ["3 mod 5", "0 mod 5"]),
    ):
        for text in texts:
            assert str(parse_scalar(text, spec)) == text
    assert parse_scalar("3", F5) == s(F5, 3)
    assert parse_scalar("-1", F5) == s(F5, 4)


def test_parse_scalar_rejects_garbage():
    with pytest.raises(ValueError):
        parse_scalar("1/0", Q)
    with pytest.raises(ValueError):
        parse_scalar("x", Q)
    with pytest.raises(ValueError):
        parse_scalar("3 mod 7", F5)
    with pytest.raises(ValueError):
        parse_scalar("3 mod 5 mod 5", F5)


def test_primality_is_exact_up_to_the_limit():
    # strong pseudoprime to every prime base up to 37 (Sorenson-Webster psi_12)
    psi12 = 399165290221 * 798330580441
    assert psi12 == 318665857834031151167461
    with pytest.raises(ValueError, match="prime"):
        FieldSpec(psi12)
    FieldSpec(2**61 - 1)
    FieldSpec(2**31 - 1)
    for too_big in (MAX_CHARACTERISTIC, 2**89 - 1):  # the limit itself, then a prime above it
        with pytest.raises(ValueError, match=str(MAX_CHARACTERISTIC)):
            FieldSpec(too_big)

import copy
import pickle
import random
from fractions import Fraction

import pytest

import leavitt
from leavitt import FieldSpec, Scalar, cli, coeffs
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


def test_field_spec_is_one_immutable_instance_per_characteristic():
    assert FieldSpec(5) is F5 and FieldSpec() is Q
    assert copy.copy(F5) is F5 and pickle.loads(pickle.dumps(F5)) is F5
    assert F5 == FieldSpec(5) and hash(F5) == hash(FieldSpec(5)) and F5 != F3
    assert repr(F5) == "FieldSpec(characteristic=5)"
    with pytest.raises(AttributeError):
        F5.characteristic = 3
    with pytest.raises(AttributeError):
        del F5.characteristic
    assert F5.characteristic == 5


@pytest.mark.parametrize(
    "bad, error, message",
    [
        (2.0, TypeError, "characteristic must be an int, got float: 2.0"),
        (True, TypeError, "characteristic must be an int, got bool: True"),
        (4, ValueError, "characteristic must be 0 or a prime, got 4"),
        (-1, ValueError, "characteristic must be 0 or a prime, got -1"),
        (
            MAX_CHARACTERISTIC,
            ValueError,
            f"characteristic must be below {MAX_CHARACTERISTIC}, the limit of the exact "
            f"primality test, got {MAX_CHARACTERISTIC}",
        ),
    ],
)
def test_rejected_characteristic_never_enters_the_cache(monkeypatch, bad, error, message):
    monkeypatch.setattr(coeffs, "_FIELDS", {})
    two = FieldSpec(2)  # 2.0 == 2 and True == 1, so the type is checked before the cache
    with pytest.raises(error) as info:
        FieldSpec(bad)
    assert str(info.value) == message
    assert coeffs._FIELDS == {2: two}


# Every entry point that takes an algebra order n, a matrix dimension d, a
# matrix position, an exponent or a probe depth checks it with the one rule
# in `coeffs`: an int, not a bool.
@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: leavitt.is_simple(Q, 3, 2.0), "d must be an int, got float: 2.0"),
        (lambda: leavitt.is_simple(Q, 2.5, 1), "n must be an int, got float: 2.5"),
        (lambda: leavitt.is_simple(Q, True, 1), "n must be an int, got bool: True"),
        (lambda: leavitt.build_witness(Q, 2, True), "d must be an int, got bool: True"),
        (lambda: leavitt.build_witness(Q, 2.0, 1), "n must be an int, got float: 2.0"),
        (lambda: leavitt.nontriviality_probe(Q, 2, 1.0), "d must be an int, got float: 1.0"),
        (lambda: leavitt.nontriviality_probe(Q, 2.5, 1), "n must be an int, got float: 2.5"),
        (lambda: leavitt.verify_witness(leavitt.BracketWitness(Q, 2.0, 1, ())), "n must be an int, got float: 2.0"),
        (lambda: leavitt.CohnElement.zero(2.0, Q), "n must be an int, got float: 2.0"),
        (lambda: leavitt.CohnElement.one(True, Q), "n must be an int, got bool: True"),
        (lambda: leavitt.CohnElement.one(2.5, Q), "n must be an int, got float: 2.5"),
        (lambda: leavitt.CohnElement(Q, 2.0, {}), "n must be an int, got float: 2.0"),
        (lambda: leavitt.ideal_generator(2.0, Q), "n must be an int, got float: 2.0"),
        (lambda: leavitt.parse_element("x[1]", 2.0, Q), "n must be an int, got float: 2.0"),
        (lambda: leavitt.parse_element("x[1]", True, Q), "n must be an int, got bool: True"),
        (lambda: leavitt.x_gen(1, 2.5, Q), "n must be an int, got float: 2.5"),
        (lambda: leavitt.y_gen(1, True, Q), "n must be an int, got bool: True"),
        (lambda: leavitt.LeavittElement.x_gen(1, 2.0, Q), "n must be an int, got float: 2.0"),
        (lambda: leavitt.LeavittElement.y_gen(2, 2.5, Q), "n must be an int, got float: 2.5"),
        (lambda: leavitt.Word((1,), 2.0), "n must be an int, got float: 2.0"),
        (lambda: leavitt.Word((), True), "n must be an int, got bool: True"),
        (lambda: leavitt.MatrixElement.zero(leavitt.LeavittElement.one(2, Q), 2.0), "d must be an int, got float: 2.0"),
        (lambda: leavitt.identity_matrix(leavitt.LeavittElement.one(2, Q), True), "d must be an int, got bool: True"),
        (lambda: leavitt.unit(leavitt.LeavittElement.one(2, Q), 1, 1, 2.0), "d must be an int, got float: 2.0"),
        (lambda: leavitt.unit(leavitt.LeavittElement.one(2, Q), 1.0, 1, 2), "i must be an int, got float: 1.0"),
        (lambda: leavitt.unit(leavitt.LeavittElement.one(2, Q), 1, True, 2), "j must be an int, got bool: True"),
        (lambda: leavitt.LeavittElement.one(2, Q) ** True, "exponent must be an int, got bool: True"),
        (lambda: leavitt.LeavittElement.one(2, Q) ** 2.0, "exponent must be an int, got float: 2.0"),
        (lambda: leavitt.CohnElement.one(2, Q) ** 2.0, "exponent must be an int, got float: 2.0"),
        (lambda: leavitt.dim_probe(2.0, 2, Q), "J must be an int, got float: 2.0"),
    ],
    ids=[
        "is_simple-d-float", "is_simple-n-float", "is_simple-n-bool", "build_witness-d-bool",
        "build_witness-n-float", "probe-d-float", "probe-n-float", "verify_witness-n-float",
        "cohn_zero-n-float", "cohn_one-n-bool", "cohn_one-n-float", "cohn_init-n-float",
        "ideal_generator-n-float", "parse_element-n-float", "parse_element-n-bool",
        "x_gen-n-float", "y_gen-n-bool", "leavitt_x_gen-n-float", "leavitt_y_gen-n-float",
        "word-n-float", "word-n-bool", "matrix_zero-d-float", "identity_matrix-d-bool",
        "unit-d-float", "unit-i-float", "unit-j-bool", "leavitt_pow-bool", "leavitt_pow-float",
        "cohn_pow-float", "dim_probe-J-float",
    ],
)
def test_non_integer_sizes_are_rejected(build, message):
    with pytest.raises(TypeError) as info:
        build()
    assert str(info.value) == message


def test_primality_is_proved_once_per_characteristic(monkeypatch, capsys):
    calls = []
    is_prime = coeffs._is_prime
    monkeypatch.setattr(coeffs, "_FIELDS", {})
    monkeypatch.setattr(coeffs, "_is_prime", lambda m: calls.append(m) or is_prime(m))
    argv = ["grid", "--chars", "2305843009213693951", "--n-range", "2:11", "--d-range", "1:20"]
    assert cli.main(argv) == 0
    assert '"ok":true' in capsys.readouterr().out
    assert calls == [2305843009213693951]


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

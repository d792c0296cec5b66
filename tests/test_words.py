import random

import pytest

from leavitt import FieldSpec, LeavittElement, Word, x_gen
from helpers import random_word


def w(letters, n=3):
    return Word(letters, n)


EMPTY = Word.empty(3)


def test_construction_validates_letters():
    with pytest.raises(ValueError):
        Word((0,), 3)
    with pytest.raises(ValueError):
        Word((4,), 3)
    with pytest.raises(ValueError):
        Word((), 1)
    assert len(Word((1, 2, 3), 3)) == 3


@pytest.mark.parametrize(
    "build, shown",
    [
        (lambda: Word((2.7,), 3), "float: 2.7"),
        (lambda: Word((1, True), 3), "bool: True"),
        (lambda: x_gen(1.9, 2, FieldSpec(0)), "float: 1.9"),
        (lambda: LeavittElement.y_gen(2.5, 3, FieldSpec(0)), "float: 2.5"),
    ],
)
def test_non_integer_letters_are_rejected(build, shown):
    with pytest.raises(TypeError, match=f"letter must be an int, got {shown}"):
        build()


def test_concat_examples():
    assert EMPTY * w((2, 1)) == w((2, 1))
    assert w((1, 2)).concat(w((3,))) == w((1, 2, 3))
    assert w((1,)) * w((1,)) == w((1, 1))


def test_concat_rejects_alphabet_mismatch():
    with pytest.raises(ValueError):
        Word((1,), 2) * Word((1,), 3)


def test_rev_examples():
    assert w((1, 2, 3)).rev() == w((3, 2, 1))
    assert EMPTY.rev() == EMPTY
    assert w((2, 2)).rev() == w((2, 2))


def test_rev_is_an_involution_and_antihomomorphism():
    rng = random.Random(5)
    for _ in range(300):
        n = rng.randint(2, 5)
        a = random_word(n, 6, rng)
        b = random_word(n, 6, rng)
        assert a.rev().rev() == a
        assert (a * b).rev() == b.rev() * a.rev()


def test_text_form():
    assert repr(w((1, 2, 3))) == "[1,2,3]"
    assert repr(EMPTY) == "[]"


def test_random_word_respects_bounds():
    rng = random.Random(2)
    for _ in range(100):
        word = random_word(4, 5, rng)
        assert 0 <= len(word) <= 5
        assert all(1 <= i <= 4 for i in word)

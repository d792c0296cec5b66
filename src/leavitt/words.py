"""The free monoid of words over the alphabet {1, ..., n}."""

from __future__ import annotations

import random
from enum import Enum
from typing import Iterator, NamedTuple, Optional

__all__ = ["Word", "Relation", "CompareResult", "concat", "rev", "compare", "random_word"]


class Word:
    """An immutable word: a finite sequence of letters drawn from {1..n}.

    The empty sequence is the identity of the monoid.  Letters are plain
    integers, so alphabets of any size work without encoding tricks.
    """

    __slots__ = ("letters", "n")

    def __init__(self, letters, n: int):
        if n < 2:
            raise ValueError(f"alphabet size must be at least 2, got {n}")
        letters = tuple(int(i) for i in letters)
        for i in letters:
            if not 1 <= i <= n:
                raise ValueError(f"letter {i} outside alphabet [1, {n}]")
        self.letters = letters
        self.n = n

    @classmethod
    def empty(cls, n: int) -> "Word":
        return cls((), n)

    def _check(self, other: "Word") -> None:
        if not isinstance(other, Word):
            raise TypeError(f"expected Word, got {type(other).__name__}")
        if other.n != self.n:
            raise ValueError(f"alphabet mismatch: {self.n} vs {other.n}")

    def concat(self, other: "Word") -> "Word":
        self._check(other)
        return Word(self.letters + other.letters, self.n)

    __mul__ = concat

    def rev(self) -> "Word":
        return Word(self.letters[::-1], self.n)

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self) -> Iterator[int]:
        return iter(self.letters)

    def __getitem__(self, idx):
        return self.letters[idx]

    def __eq__(self, other) -> bool:
        return isinstance(other, Word) and self.n == other.n and self.letters == other.letters

    def __hash__(self):
        return hash((self.letters, self.n))

    def __repr__(self) -> str:
        return "[" + ",".join(str(i) for i in self.letters) + "]"


class Relation(Enum):
    EQUAL = "equal"
    LEFT_PREFIX_OF_RIGHT = "left-prefix-of-right"
    RIGHT_PREFIX_OF_LEFT = "right-prefix-of-left"
    INCOMPARABLE = "incomparable"


class CompareResult(NamedTuple):
    relation: Relation
    remainder: Optional[Word]

    @property
    def comparable(self) -> bool:
        return self.relation is not Relation.INCOMPARABLE


def concat(a: Word, b: Word) -> Word:
    return a.concat(b)


def rev(a: Word) -> Word:
    return a.rev()


def compare(a: Word, b: Word) -> CompareResult:
    """Locate a and b in the prefix order of the free monoid.

    Returns EQUAL when a = b, LEFT_PREFIX_OF_RIGHT with the unique
    remainder k when b = a k, RIGHT_PREFIX_OF_LEFT with the unique k when
    a = b k, and INCOMPARABLE (remainder None) when neither is a prefix of
    the other.
    """
    a._check(b)
    la, lb = len(a.letters), len(b.letters)
    if la == lb:
        if a.letters == b.letters:
            return CompareResult(Relation.EQUAL, Word.empty(a.n))
        return CompareResult(Relation.INCOMPARABLE, None)
    if la < lb:
        if b.letters[:la] == a.letters:
            return CompareResult(
                Relation.LEFT_PREFIX_OF_RIGHT, Word(b.letters[la:], a.n)
            )
        return CompareResult(Relation.INCOMPARABLE, None)
    if a.letters[:lb] == b.letters:
        return CompareResult(Relation.RIGHT_PREFIX_OF_LEFT, Word(a.letters[lb:], a.n))
    return CompareResult(Relation.INCOMPARABLE, None)


def random_word(n: int, max_len: int, rng: random.Random) -> Word:
    """A uniformly random length in [0, max_len], then uniform letters."""
    length = rng.randint(0, max_len)
    return Word((rng.randint(1, n) for _ in range(length)), n)

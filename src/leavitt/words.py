"""The free monoid of words over the alphabet {1, ..., n}."""

from __future__ import annotations

from typing import Iterator, Tuple

__all__ = ["Word"]


def _check_alphabet(n: int) -> None:
    if n < 2:
        raise ValueError(f"alphabet size must be at least 2, got {n}")


def _checked_letters(letters, n: int) -> Tuple[int, ...]:
    """The letters as a tuple, each checked to be an int in {1..n}."""
    _check_alphabet(n)
    letters = tuple(letters)
    for i in letters:
        if isinstance(i, bool) or not isinstance(i, int):
            raise TypeError(f"letter must be an int, got {type(i).__name__}: {i!r}")
        if not 1 <= i <= n:
            raise ValueError(f"letter {i} outside alphabet [1, {n}]")
    return letters


class Word:
    """An immutable word: a finite sequence of letters drawn from {1..n}.

    The empty sequence is the identity of the monoid.  Letters are plain
    integers, so alphabets of any size work without encoding tricks.
    """

    __slots__ = ("letters", "n")

    def __init__(self, letters, n: int):
        self.letters = _checked_letters(letters, n)
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

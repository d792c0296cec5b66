"""The free monoid of words over {1..n}, and arithmetic in the Cohn algebra of order n.

The algebra is generated by x_1..x_n, y_1..y_n subject to y_i x_j = delta_ij.
The products x_I y_J, indexed by pairs of words, form a free basis, so an
element is stored as a sparse mapping from monomials to nonzero scalars.

Internally that mapping is a plain dict {(X, Y): c} of nonzero ints beside
one int denominator `_den`: X and Y are the word codes of I and J, and the
coefficient of x_I y_J is c / _den.  Over F_p, c is a residue in [1, p) and
`_den` is 1.  Over Q, `_den` is at least 1 and no factor above 1 divides it
and every c, so each element has one stored form; builders that may leave a
common factor divide it out by `_reduced`.  No product, sum, scaling or
normal form builds or reads a `Fraction`: one is made only where a
coefficient leaves the element, in the `terms` view, the trace and the
rewrite steps of a normal form.  A word code is an int with one field of k
hex digits per letter, k the number of hex digits of n, and the first letter
in the most significant field; the empty word is 0.  Letters are never 0, so
a word's length is its bit length over 4k, rounded up, concatenation is a
shift and an or, and codes order words length-lex.  The field and the
alphabet size are stored once per element.  Public constructors check their
input and encode its words; ring operations build results through the
trusted `_raw`.  The ring operations, generators, trace functional,
equality and printing live in `_Element`, which CohnElement shares with the
elements of the Leavitt quotient.  Words leave the map as letter tuples
through the `terms` view.  Text is read in one
pass: one loop over one pattern's `findall` matches builds each term's word
codes by shifts and ors and its coefficient from an integer numerator and
denominator.  That pattern's tokens, `_TOKENS`, are also those of the
expression parser, so the printed form reads back through either.

A product, or a sum of products such as those landing on one matrix
position, sums the pair products into one integer map (`_sum_products`; over
Q the map is over the lcm of the products' denominators, and its common
factor with them is divided out once at the end).  A left term x_I y_J
with J nonempty only scans the right terms whose K is empty or starts with
the last letter of J, found by one lookup in an index of the right factor by
first x-letter; a left term with J empty meets every right term.  A bracket
adds both ab and -ba into the same map, so it makes one pass with no
intermediate product.  Each element class says once, in `_expands_junctions`,
whether its products expand the junction x_n y_n; the Leavitt quotient's do,
so the same loop multiplies normal forms in L(n), expanding each junction it
meets by `_expand`, the one closed form.  An operand of another class raises
TypeError.

Printing formats each distinct numerator once per call, reduced against the
denominator, and writes each distinct word once, x-words and y-words in one
map, growing its text from that of its longest prefix already written.
"""

from __future__ import annotations

import re
import sys
from collections.abc import Mapping
from fractions import Fraction
from math import gcd, lcm
from typing import Dict, Iterator, List, Optional, Tuple, Type, TypeVar

from .coeffs import FieldSpec, Scalar, _check_int, _check_spec

__all__ = [
    "Word",
    "Monomial",
    "CohnElement",
    "ideal_generator",
    "x_word",
    "y_word",
    "x_gen",
    "y_gen",
    "parse_element",
]


def _check_alphabet(n: int) -> None:
    _check_int(n, "n")
    if n < 2:
        raise ValueError(f"alphabet size must be at least 2, got {n}")


def _checked_letters(letters, n: int) -> Tuple[int, ...]:
    """The letters as a tuple, each checked to be an int in {1..n}."""
    _check_alphabet(n)
    letters = tuple(letters)
    for i in letters:
        if not 1 <= _check_int(i, "letter") <= n:
            raise ValueError(f"letter {i} outside alphabet [1, {n}]")
    return letters


def _span(code: int, b: int) -> int:
    """The bit length of code rounded up to a multiple of b: for a word code, b times its length."""
    return -(-code.bit_length() // b) * b


def _first(code: int, b: int) -> int:
    """The first letter of a nonempty word code, b bits per letter."""
    return code >> (code.bit_length() - 1) // b * b


def _field_bits(n: int) -> int:
    """Bits per letter of a word code over {1..n}: four per hex digit of n."""
    return _span(n, 4)


def _code(letters, b: int) -> int:
    """The code of a word, b bits per letter; the letters are already checked."""
    code = 0
    for i in letters:
        code = code << b | i
    return code


def _letters(code: int, n: int) -> Tuple[int, ...]:
    """The letters of a word code over {1..n}."""
    b = _field_bits(n)
    low, letters = (1 << b) - 1, []
    while code:
        letters.append(code & low)
        code >>= b
    return tuple(letters[::-1])


def _rev(code: int, b: int) -> int:
    """The code of the reversed word."""
    low, out = (1 << b) - 1, 0
    while code:
        out = out << b | code & low
        code >>= b
    return out


def _degree(b: int):
    """Degree of a raw monomial (X, Y), b bits per letter: x-letters count +1, y-letters -1."""
    # -(-bits // b) is the letter count, so this is len(X) - len(Y); it is
    # written out rather than through _span, as printing sorts every term by it
    return lambda m: -m[1].bit_length() // b - -m[0].bit_length() // b


def _order(b: int):
    """Print order of raw terms ((X, Y), c), b bits per letter: degree, then length-lex x, then y.

    A code with more letters is the larger, and codes of one length
    compare as their words do, so the codes themselves order length-lex.
    The key is flat, (degree, X, Y), as a nested pair compares slower.
    """
    degree = _degree(b)
    return lambda term: (degree(term[0]), *term[0])


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


def _reduced(terms: Dict, den: int) -> Tuple[Dict, int]:
    """(terms, den) with the common factor of den and every numerator divided out."""
    if den > 1:
        g = gcd(den, *terms.values())
        if g > 1:
            return {m: c // g for m, c in terms.items()}, den // g
    return terms, den


def _scalar(spec: FieldSpec, c: int, den: int) -> Scalar:
    """The Scalar c / den."""
    return Scalar(spec, c if den == 1 else Fraction(c, den))


def _absorb(out: Dict, m, c, p: int) -> None:
    """Add the raw value c into out[m], keeping the map free of zeros."""
    acc = out.get(m)
    if acc is not None:
        c = (acc + c) % p if p else acc + c
        if not c:
            del out[m]
            return
    out[m] = c


def _expand(X: int, Y: int, c, neg, n: int) -> Dict:
    """The normal form of c x_X y_Y in the Leavitt quotient L(n), as a fresh map; neg is -c.

    For x_{A n^r} y_{n^s B}, A not ending and B not starting with n, and m = min(r, s), it is
    x_{A n^(r-m)} y_{n^(s-m) B} - sum_{t=1..m} sum_{i<n} x_{A n^(r-t) i} y_{i n^(s-t) B},
    whose terms are junction-free and distinct; the map holds the leading one first.
    """
    b = _field_bits(n)
    low = (1 << b) - 1
    sy = _span(Y, b)
    x, s = X, sy - b  # s: the shift of Y's next letter
    while s >= 0 and x & low == n and Y >> s & low == n:
        x >>= b
        s -= b
    out = {(x, Y & ((1 << (s + b)) - 1)): c}
    # step t leaves x_{A n^(r-t)} and y_{n^(s-t) B}, and puts each i < n between them
    left, s, letters = X, sy, range(1, n)
    while left != x:
        left >>= b
        s -= b
        head, tail = left << b, Y & ((1 << s) - 1)
        for i in letters:
            out[(head | i, i << s | tail)] = neg
    return out


def _junctions(terms, n: int) -> List:
    """The monomials x_{Ln} y_{nR} of a raw term map over {1..n}: X's last letter and Y's first are n."""
    b = _field_bits(n)
    low = (1 << b) - 1
    return [(X, Y) for X, Y in terms if X & low == n and Y and _first(Y, b) == n]


def _accumulate(acc: Dict, left: Dict, right: Dict, sign: int, top: int, b: int) -> None:
    """Add sign * ca * cb into acc at the product of every left term x_I y_J
    (integer coefficient ca) and right term x_K y_L (cb) that is nonzero,
    for words coded with b bits per letter.

    y_J x_K telescopes under y_i x_j = delta_ij and survives exactly when one
    of rev(J), K is a prefix of the other; the unconsumed letters stay on
    their own side.  So a left term with J nonempty reads only the bucket of
    right terms whose K starts with the last letter of J, each bucket also
    holding the terms with K empty.  A single left term scans every right
    term once, which costs no more than building the buckets.  Given a top
    letter n and junction-free terms, a product has a junction only when
    rev(J) = K (both empty included), as a leftover of K ends x_K y_L and
    one of J starts x_I y_J; only those products are expanded, into acc.

    On codes, with R the code of rev(J) and sj, sk, sl the bit lengths of
    J, K, L rounded up to whole letters: rev(J) is a prefix of K when
    K >> (sk - sj) == R, and then x_I x_{K minus rev(J)} is
    ((I ^ R) << (sk - sj)) ^ K; K is a prefix of rev(J) when
    R >> (sj - sk) == K, and then y_{J minus its last letters} y_L is
    (J >> sk) << sl | L.
    """
    get = acc.get
    low = (1 << b) - 1
    rows = []  # each right term with the bit lengths of K and L rounded up to whole letters, as by _span
    for (K, L), cb in right.items():
        rows.append((K, L, cb, -(-K.bit_length() // b) * b, -(-L.bit_length() // b) * b))
    index = None
    if len(left) > 1:
        groups: Dict = {}
        for row in rows:
            groups.setdefault(_first(row[0], b) if row[0] else 0, []).append(row)
        empty = groups.pop(0, [])
        index = {first: empty + group for first, group in groups.items()}
    for (X, J), ca in left.items():
        ca *= sign
        # a junction needs I to end in the top letter; top 0 is the Cohn product
        ends = top and X & low == top
        if not J:
            for K, L, cb, sk, sl in rows:
                if ends and not K and L and _first(L, b) == top:
                    for m, v in _expand(X, L, ca * cb, -ca * cb, top).items():
                        acc[m] = get(m, 0) + v
                    continue
                m = (X << sk | K, L)
                acc[m] = get(m, 0) + ca * cb
            continue
        R = _rev(J, b)
        sj = -(-J.bit_length() // b) * b
        XR = X ^ R
        for K, L, cb, sk, sl in rows if index is None else index.get(J & low, empty):
            if sj <= sk:
                d = sk - sj
                if K >> d != R:
                    continue
                if ends and not d and L and _first(L, b) == top:
                    for m, v in _expand(X, L, ca * cb, -ca * cb, top).items():
                        acc[m] = get(m, 0) + v
                    continue
                m = (XR << d ^ K, L)
            elif R >> (sj - sk) == K:
                m = (X, J >> sk << sl | L)
            else:
                continue
            acc[m] = get(m, 0) + ca * cb


class _WordTexts(dict):
    """Word code -> its letters joined by commas, such as "1,12" ("" for the empty word), for one printing call.

    A one-letter word's code is its letter, so that entry is also the
    letter's text.  Products extend words at their ends, so the words of one
    element share prefixes: a new word's text is written from its longest
    prefix already written, one letter at a time, and every prefix passed
    is kept.
    """

    __slots__ = ("b",)

    def __init__(self, b: int):
        super().__init__({0: ""})
        self.b = b

    def __missing__(self, word: int) -> str:
        b = self.b
        low = (1 << b) - 1
        if word <= low:  # one letter
            text = self[word] = str(word)
            return text
        code, path = word, []
        while code > low and code not in self:
            path.append(code)
            code >>= b
        text = self[code]
        for code in reversed(path):
            text = self[code] = text + "," + self[code & low]
        return text


def _mono_text(X: int, Y: int, n: int) -> str:
    """A monomial's text, such as x[1,2]*y[2], from its word codes over {1..n}; "1" if both are empty."""
    words = _WordTexts(_field_bits(n))
    blocks = [tag + "[" + words[code] + "]" for tag, code in (("x", X), ("y", Y)) if code]
    return "*".join(blocks) or "1"


class Monomial:
    """A basis monomial x_I y_J, held as the pair of words (I, J)."""

    __slots__ = ("xs", "ys")

    def __init__(self, xs: Word, ys: Word):
        xs._check(ys)
        self.xs = xs
        self.ys = ys

    @property
    def n(self) -> int:
        return self.xs.n

    @property
    def degree(self) -> int:
        # x-letters count +1, y-letters -1
        return len(self.xs) - len(self.ys)

    def __eq__(self, other) -> bool:
        return isinstance(other, Monomial) and self.xs == other.xs and self.ys == other.ys

    def __hash__(self):
        return hash((self.xs, self.ys))

    def __repr__(self) -> str:
        b = _field_bits(self.n)
        return _mono_text(_code(self.xs.letters, b), _code(self.ys.letters, b), self.n)


class _Terms(Mapping):
    """Read-only Monomial -> Scalar view over an element's raw term map, translating word codes."""

    __slots__ = ("_spec", "_n", "_raw", "_den")

    def __init__(self, element: "CohnElement"):
        self._spec, self._n = element.spec, element.n
        self._raw, self._den = element._terms, element._den

    def __len__(self) -> int:
        return len(self._raw)

    def __iter__(self):
        n = self._n
        for X, Y in self._raw:
            yield Monomial(Word(_letters(X, n), n), Word(_letters(Y, n), n))

    def __getitem__(self, mono: Monomial) -> Scalar:
        if isinstance(mono, Monomial) and mono.n == self._n:
            b = _field_bits(self._n)
            value = self._raw.get((_code(mono.xs.letters, b), _code(mono.ys.letters, b)))
            if value is not None:
                return _scalar(self._spec, value, self._den)
        raise KeyError(mono)


_E = TypeVar("_E", bound="_Element")


class _Element:
    """What the Cohn algebra and its Leavitt quotient share: a field, an
    alphabet size and a raw term map of integer numerators over one
    denominator, with the ring operations.  Each subclass sets
    `_expands_junctions`, which alone tells the two products apart.

    The term map never stores a zero coefficient and the denominator is
    reduced against it, so equality of elements is equality of the maps and
    denominators.  Instances are immutable: no method mutates the
    map, so results may share it.  Elements of two different classes never
    mix: `_check` and `==` compare exact types.
    """

    __slots__ = ("spec", "n", "_terms", "_den")

    @classmethod
    def _raw(cls: Type[_E], spec: FieldSpec, n: int, terms: Dict, den: int = 1) -> _E:
        """Trusted constructor: terms over den is in canonical form, and terms is owned by the result."""
        e = object.__new__(cls)
        e.spec = spec
        e.n = n
        e._terms = terms
        e._den = den
        return e

    def _like(self: _E, terms: Dict, den: int = 1) -> _E:
        e = object.__new__(type(self))
        e.spec = self.spec
        e.n = self.n
        e._terms = terms
        e._den = den
        return e

    @classmethod
    def zero(cls: Type[_E], n: int, spec: FieldSpec) -> _E:
        _check_alphabet(n)
        return cls._raw(_check_spec(spec), n, {})

    @classmethod
    def one(cls: Type[_E], n: int, spec: FieldSpec) -> _E:
        _check_alphabet(n)
        return cls._raw(_check_spec(spec), n, {(0, 0): 1})

    # a one-letter word's code is the letter itself
    @classmethod
    def x_gen(cls: Type[_E], i: int, n: int, spec: FieldSpec) -> _E:
        i = _checked_letters((i,), n)[0]
        return cls._raw(_check_spec(spec), n, {(i, 0): 1})

    @classmethod
    def y_gen(cls: Type[_E], i: int, n: int, spec: FieldSpec) -> _E:
        i = _checked_letters((i,), n)[0]
        return cls._raw(_check_spec(spec), n, {(0, i): 1})

    def _check(self, other: "_Element") -> None:
        if type(other) is not type(self):
            raise TypeError(f"expected {type(self).__name__}, got {type(other).__name__}")
        if other.spec != self.spec:
            raise ValueError(f"mismatched fields: {self.spec} vs {other.spec}")
        if other.n != self.n:
            raise ValueError(f"mismatched alphabet sizes: {self.n} vs {other.n}")

    def is_zero(self) -> bool:
        return not self._terms

    def zero_like(self: _E) -> _E:
        return self._like({})

    def __add__(self: _E, other: _E) -> _E:
        self._check(other)
        p = self.spec.characteristic
        den = lcm(self._den, other._den)
        ka, kb = den // self._den, den // other._den
        out = dict(self._terms) if ka == 1 else {m: c * ka for m, c in self._terms.items()}
        for m, c in other._terms.items():
            _absorb(out, m, c * kb, p)
        return self._like(*_reduced(out, den))

    def __neg__(self: _E) -> _E:
        p = self.spec.characteristic
        return self._like({m: p - c if p else -c for m, c in self._terms.items()}, self._den)

    def __sub__(self: _E, other: _E) -> _E:
        self._check(other)
        return self + -other

    def scale(self: _E, s: Scalar) -> _E:
        if not isinstance(s, Scalar):
            raise TypeError(f"expected Scalar, got {type(s).__name__}")
        if s.spec != self.spec:
            raise ValueError(f"mismatched fields: {self.spec} vs {s.spec}")
        return self._times(s.value)

    def _times(self: _E, v) -> _E:
        """Multiply every coefficient by v, an int (reduced mod p over F_p) or a Fraction."""
        if not v:
            return self.zero_like()
        p = self.spec.characteristic
        if p:
            return self._like({m: v * c % p for m, c in self._terms.items()})
        num = v.numerator
        return self._like(*_reduced({m: num * c for m, c in self._terms.items()}, self._den * v.denominator))

    def __mul__(self: _E, other) -> _E:
        """The product with an element of the same algebra, or with a Scalar or an int."""
        if not isinstance(other, (Scalar, int)):
            self._check(other)
            return self._like(*_Element._sum_products(((self, other, 1),)))
        if isinstance(other, Scalar):
            return self.scale(other)
        p = self.spec.characteristic
        return self._times(other % p if p else other)

    def __rmul__(self, other):
        if isinstance(other, (Scalar, int)):
            return self * other
        return NotImplemented

    def __pow__(self: _E, exponent: int) -> _E:
        """self ** k for k >= 1 by repeated squaring, in at most 2 log2(k) products.

        The running square multiplies on the left, so k = 3 makes
        (self*self)*self, the left-to-right product.
        """
        _check_int(exponent, "exponent")
        if exponent < 1:
            raise ValueError(f"exponent must be at least 1, got {exponent}")
        square, out = self, None
        while True:
            if exponent & 1:
                out = square if out is None else square * out
            exponent >>= 1
            if not exponent:
                return out
            square = square * square

    def bracket(self: _E, other: _E) -> _E:
        """The commutator ab - ba, summed in one pass over both products."""
        self._check(other)
        return self._like(*_Element._sum_products(((self, other, 1), (other, self, -1))))

    @staticmethod
    def _sum_products(triples) -> Tuple[Dict, int]:
        """The raw map and denominator of the sum of sign * a * b over triples (a, b, sign), at
        least one, of elements of one algebra, in one integer accumulator; the field, the alphabet
        {1..n} and whether the products expand each junction x_n y_n come from the first operand.
        """
        first = triples[0][0]
        p, n = first.spec.characteristic, first.n
        top = n if first._expands_junctions else 0  # 0 gives the Cohn product
        acc: Dict = {}
        bits = _field_bits(n)
        if p:
            for a, b, sign in triples:
                _accumulate(acc, a._terms, b._terms, sign, top, bits)
            out = {}
            for m, v in acc.items():
                v %= p
                if v:
                    out[m] = v
            return out, 1
        # each product is scaled to the lcm of the products' denominators, so the pair loop only handles ints
        dens = [a._den * b._den for a, b, _ in triples]
        den = lcm(*dens)
        for (a, b, sign), dab in zip(triples, dens):
            _accumulate(acc, a._terms, b._terms, sign * (den // dab), top, bits)
        for m in [m for m, v in acc.items() if not v]:  # few cancel, so deleting beats rebuilding
            del acc[m]
        return _reduced(acc, den)

    def trace(self) -> Scalar:
        """Sum of the coefficients of the monomials x_I y_J with I = rev(J).

        This is the linear functional sending x_I y_J to 1 when I = rev(J)
        and to 0 otherwise; it satisfies trace(ab) = trace(ba).
        """
        b = _field_bits(self.n)
        total = sum(c for (X, Y), c in self._terms.items() if X == _rev(Y, b))
        return _scalar(self.spec, total, self._den)

    def __eq__(self, other) -> bool:
        return (
            type(other) is type(self)
            and self.spec == other.spec
            and self.n == other.n
            and self._den == other._den
            and self._terms == other._terms
        )

    def __hash__(self):
        return hash((self.spec, self.n, self._den, frozenset(self._terms.items())))

    def __str__(self) -> str:
        terms, den = self._terms, self._den
        if not terms:
            return "0"
        b = _field_bits(self.n)
        forms, words, chunks = {}, _WordTexts(b), []
        for (X, Y), c in sorted(terms.items(), key=_order(b)):
            form = forms.get(c)
            if form is None:
                # a numerator is negative only over Q; over F_p den is 1
                g = gcd(c, den)
                mag = str(abs(c) // g) if g == den else f"{abs(c) // g}/{den // g}"
                form = forms[c] = (" - " if c < 0 else " + ", mag, "" if mag == "1" else mag + "*")
            sep, mag, prefix = form
            if X and Y:
                chunks += (sep, prefix, "x[", words[X], "]*y[", words[Y], "]")
            elif X:
                chunks += (sep, prefix, "x[", words[X], "]")
            elif Y:
                chunks += (sep, prefix, "y[", words[Y], "]")
            else:
                chunks += (sep, mag)
        chunks[0] = "-" if chunks[0] == " - " else ""
        return "".join(chunks)

    def __repr__(self) -> str:
        return f"<{type(self).__name__} n={self.n} over {self.spec}: {self}>"


class CohnElement(_Element):
    """A finite linear combination of basis monomials, in canonical sparse form.

    `terms` is a read-only Monomial -> Scalar view over the term map.
    """

    __slots__ = ()
    _expands_junctions = False

    def __init__(self, spec: FieldSpec, n: int, terms: Mapping):
        _check_alphabet(n)
        b = _field_bits(n)
        raw = {}
        for m, c in terms.items():
            if not isinstance(m, Monomial):
                raise TypeError(f"term key must be a Monomial, got {type(m).__name__}: {m!r}")
            if not isinstance(c, Scalar):
                raise TypeError(f"coefficient of {m!r} must be a Scalar, got {type(c).__name__}: {c!r}")
            if m.n != n:
                raise ValueError(f"monomial alphabet {m.n} does not match element alphabet {n}")
            if c.spec != spec:
                raise ValueError(f"coefficient field {c.spec} does not match element field {spec}")
            if not c.is_zero():
                raw[(_code(m.xs.letters, b), _code(m.ys.letters, b))] = c.value
        # over the lcm of the reduced denominators the numerators share no factor with it
        den = lcm(*[v.denominator for v in raw.values()])
        self.spec = _check_spec(spec)  # after the terms, which report a non-FieldSpec as a mismatch
        self.n = n
        self._terms = {m: v.numerator * (den // v.denominator) for m, v in raw.items()}
        self._den = den

    @property
    def terms(self) -> Mapping:
        return _Terms(self)

    @classmethod
    def from_monomial(
        cls, mono: Monomial, spec: FieldSpec, coeff: Optional[Scalar] = None
    ) -> "CohnElement":
        return cls(spec, mono.n, {mono: spec.one() if coeff is None else coeff})

    def degree_split(self) -> Dict[int, "CohnElement"]:
        """Partition into homogeneous parts under deg(x_i) = 1, deg(y_i) = -1."""
        parts: Dict[int, Dict] = {}
        degree = _degree(_field_bits(self.n))
        for m, c in self._terms.items():
            parts.setdefault(degree(m), {})[m] = c
        return {d: self._like(*_reduced(t, self._den)) for d, t in sorted(parts.items())}

    # perfbench's tracer wraps the product in this class's own namespace
    __mul__ = _Element.__mul__


x_gen = CohnElement.x_gen
y_gen = CohnElement.y_gen


def x_word(word: Word, spec: FieldSpec) -> CohnElement:
    n = word.n
    return CohnElement._raw(_check_spec(spec), n, {(_code(word.letters, _field_bits(n)), 0): 1})


def y_word(word: Word, spec: FieldSpec) -> CohnElement:
    n = word.n
    return CohnElement._raw(_check_spec(spec), n, {(0, _code(word.letters, _field_bits(n))): 1})


def ideal_generator(n: int, spec: FieldSpec) -> CohnElement:
    """The element 1 - sum_i x_i y_i whose two-sided ideal defines the Leavitt quotient."""
    _check_alphabet(n)
    p = _check_spec(spec).characteristic
    minus_one = p - 1 if p else -1
    terms = {(0, 0): 1}
    for i in range(1, n + 1):
        terms[(i, i)] = minus_one
    return CohnElement._raw(spec, n, terms)


# --- canonical element text -------------------------------------------------
#
# The printed form is "c1*m1 + c2*m2 + ...", with monomials like
# "x[1,2]*y[2,1]" and bare coefficients ("1/2" over Q, residues over F_p).
# parse_element reads that form back; it also accepts any product of
# x/y blocks and scalar factors, multiplying them out in the algebra.
# _TOKENS, shared with the expression parser, has five groups: a block's tag
# and letters, an integer and the denominator of a fraction, and an
# operator; digits are ASCII.  parse_element adds an unreadable character.

_TOKENS = r"([xy])\[([0-9,\s]*)\]|([0-9]+)(?:\s*/\s*([0-9]+))?|([-+*/])"
_ELEMENT_RE = re.compile(_TOKENS + r"|(\S)")


def _int(digits: str) -> int:
    """The value of a string of ASCII digits; ValueError naming the interpreter's limit on their number."""
    try:
        return int(digits)
    except ValueError:
        limit = f"the limit of {sys.get_int_max_str_digits()} digits"
        raise ValueError(f"integer literal of {len(digits)} digits exceeds {limit}") from None


def _word(tag: str, letters: str) -> List[int]:
    """The letters of a block, not yet checked against the alphabet."""
    try:
        return [*map(int, letters.split(","))]
    except ValueError:
        kind = "bad" if letters.strip() else "empty"
        raise ValueError(f"{kind} generator word in {tag + '[' + letters + ']'!r}") from None


def _text_error(text: str) -> Optional[ValueError]:
    """The error of the first unreadable character, block or integer in text, if any."""
    end = 0
    for m in _ELEMENT_RE.finditer(text):
        if m[6]:
            return ValueError(f"bad element text at position {end}: {text[end:]!r}")
        try:
            if m[1]:
                _word(m[1], m[2])
            elif m[3]:
                _int(m[3]), _int(m[4] or "0")  # an integer too long to convert
        except ValueError as exc:
            return exc
        end = m.end()
    return None


def parse_element(text: str, n: int, spec: FieldSpec) -> CohnElement:
    """Read an element back from its canonical textual form, or any sum of signed
    products of x/y blocks, integers and fractions a/b."""
    tokens = _ELEMENT_RE.findall(text)
    if not tokens:
        raise ValueError("empty element text")
    try:
        _check_alphabet(n)
        b = _field_bits(n)
        p = _check_spec(spec).characteristic
        out: Dict = {}
        rational = []  # over Q, each term's (monomial, numerator, denominator), summed once all are read
        # a term: one monomial (None once its blocks multiply to zero) times num / den; want: a factor is due
        mono, num, den, want = (0, 0), -1 if tokens[0][4] == "-" else 1, 1, True
        start = 1 if tokens[0][4] in ("+", "-") else 0  # a leading sign is the first term's
        tokens.append(("", "", "", "", "+", ""))  # a closing '+' ends the last term
        for tag, letters, a, c, op, bad in tokens[start:]:
            if tag:
                if not want:
                    raise ValueError(f"missing '*' before {tag!r} factor")
                word = _word(tag, letters)
                if min(word) < 1 or max(word) > n:
                    _checked_letters(word, n)  # raises, naming the first letter outside
                if mono is not None:
                    code = 0
                    for i in word:
                        code = code << b | i
                    # a y-block, or an x-block after no y-word, concatenates: a shift and an
                    # or, without the pair loop's per-call set-up; y_Y x_code telescopes there
                    X, Y = mono
                    if tag == "y":
                        mono = (X, Y << len(word) * b | code)
                    elif not Y:
                        mono = (X << len(word) * b | code, 0)
                    else:
                        product: Dict = {}
                        _accumulate(product, {mono: 1}, {(code, 0): 1}, 1, 0, b)
                        mono = next(iter(product), None)
                want = False
            elif a:
                if not want:
                    raise ValueError("missing '*' before 'int' factor")
                num *= int(a)
                if c:
                    den *= int(c)  # the earlier factors are nonzero, so den is zero when this one is
                    if not (den % p if p else den):
                        raise ZeroDivisionError(f"division by zero in {spec}")
                want = False
            elif op == "*":
                if want:
                    raise ValueError("misplaced '*' in element text")
                want = True
            elif op == "/":
                raise ValueError("unexpected '/' in element text")
            elif op:
                if want:
                    raise ValueError("dangling operator in element text")
                if mono is not None and (num % p if p else num):
                    if p:
                        _absorb(out, mono, num * pow(den, -1, p) % p, p)
                    else:
                        rational.append((mono, num, den))
                mono, num, den, want = (0, 0), -1 if op == "-" else 1, 1, True
            else:  # reported with its position below
                raise ValueError(bad)
    except Exception as exc:
        # text that does not split into tokens is reported first, wherever the read stopped
        raise (_text_error(text) or exc) from None
    den = lcm(*{d for _, _, d in rational})
    for mono, num, d in rational:
        _absorb(out, mono, num * (den // d), 0)
    return CohnElement._raw(spec, n, *_reduced(out, den))

"""The free monoid of words over {1..n}, and arithmetic in the Cohn algebra of order n.

The algebra is generated by x_1..x_n, y_1..y_n subject to y_i x_j = delta_ij.
The products x_I y_J, indexed by pairs of words, form a free basis, so an
element is stored as a sparse mapping from monomials to nonzero scalars.

Internally that mapping is a plain dict {(xs, ys): value}: xs and ys are the
letter tuples of I and J, and value is what `Scalar.value` would hold (a
reduced `Fraction` over Q, an int in [1, p) over F_p), never zero.  The field
and the alphabet size are stored once per element.  Public constructors check
their input; ring operations build results through the trusted `_raw`.  What
does not depend on the product (sums, scaling, powers, the trace functional,
equality, printing) lives in `_Element`, which CohnElement shares with the
elements of the Leavitt quotient.

A product sums the pair products into one integer map (over Q each factor is
first scaled to integer numerators over one denominator).  Over Q it then
builds one `Fraction` per distinct output value, which every term with that
value shares.  A left term x_I y_J with J nonempty only scans the right
terms whose K is empty or starts with the last letter of J, found by one
lookup in an index of the right factor by first x-letter; a left term with
J empty meets every right term.  A bracket adds both ab and -ba into the
same map, so it makes one pass with no intermediate product.  Given the
top letter n, the same loop multiplies normal forms in the Leavitt quotient
L(n), expanding each junction it meets by `_expand`, the one closed form.
It raises TypeError for an operand that is not a CohnElement.

Printing formats each coefficient object once per call (keyed by id, as
equal values often share one object), writes each distinct x-word and
y-word once, and makes each letter's text once.
"""

from __future__ import annotations

import re
from collections.abc import Mapping
from fractions import Fraction
from math import lcm
from typing import Dict, Iterator, Optional, Tuple, Type, TypeVar

from .coeffs import FieldSpec, Scalar, _check_int

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
    # The exact type tests are fast paths, taken once per parsed block and
    # per letter; _check_alphabet and _check_int decide every other case.
    if type(n) is not int or n < 2:
        _check_alphabet(n)
    letters = tuple(letters)
    for i in letters:
        if type(i) is not int:
            _check_int(i, "letter")
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


def _order(key):
    """Print order of a raw monomial (xs, ys): degree, then length-lex x, then y."""
    xs, ys = key
    return (len(xs) - len(ys), len(xs), xs, len(ys), ys)


def _raw_one(spec: FieldSpec):
    """The raw value of 1 in the field: a Fraction over Q, an int over F_p."""
    return 1 if spec.characteristic else Fraction(1)


def _absorb(out: Dict, m, c, p: int) -> None:
    """Add the raw value c into out[m], keeping the map free of zeros."""
    acc = out.get(m)
    if acc is not None:
        c = (acc + c) % p if p else acc + c
        if not c:
            del out[m]
            return
    out[m] = c


def _integral(terms: Dict):
    """Rational coefficients as integer numerators over their lcm denominator d: (d, {m: c * d})."""
    d = lcm(*[c.denominator for c in terms.values()])
    return d, {m: c.numerator * (d // c.denominator) for m, c in terms.items()}


def _expand(xs, ys, c, neg, n: int) -> Dict:
    """The normal form of c x_xs y_ys in the Leavitt quotient L(n), as a fresh map; neg is -c.

    For x_{A n^r} y_{n^s B}, A not ending and B not starting with n, and m = min(r, s), it is
    x_{A n^(r-m)} y_{n^(s-m) B} - sum_{t=1..m} sum_{i<n} x_{A n^(r-t) i} y_{i n^(s-t) B},
    whose terms are junction-free and distinct; the map holds the leading one first.
    """
    r, m, most = len(xs), 0, min(len(xs), len(ys))
    while m < most and xs[-1 - m] == n and ys[m] == n:
        m += 1
    out = {(xs[: r - m], ys[m:]): c}
    letters = [(i,) for i in range(1, n)]
    for t in range(1, m + 1):
        left, right = xs[: r - t], ys[t:]
        for i in letters:
            out[(left + i, i + right)] = neg
    return out


def _accumulate(acc: Dict, left: Dict, right: Dict, sign: int, top: int) -> None:
    """Add sign * ca * cb into acc at the product of every left term x_I y_J
    (integer coefficient ca) and right term x_K y_L (cb) that is nonzero.

    y_J x_K telescopes under y_i x_j = delta_ij and survives exactly when one
    of rev(J), K is a prefix of the other; the unconsumed letters stay on
    their own side.  So a left term with J nonempty reads only the bucket of
    right terms whose K starts with the last letter of J, each bucket also
    holding the terms with K empty.  A single left term scans every right
    term once, which costs no more than building the buckets.  Given a top
    letter n and junction-free terms, a product has a junction only when
    rev(J) = K (both empty included), as a leftover of K ends x_K y_L and
    one of J starts x_I y_J; only those products are expanded, into acc.
    """
    get = acc.get
    scan = right.items()
    index = None
    if len(left) > 1:
        groups: Dict = {}
        for term in scan:
            groups.setdefault(term[0][0][:1], []).append(term)
        empty = groups.pop((), [])
        index = {first[0]: empty + group for first, group in groups.items()}
    for (xs, ys), ca in left.items():
        ca *= sign
        if not ys:
            for (ks, ls), cb in scan:
                if top and not ks and xs[-1:] == ls[:1] == (top,):
                    for m, v in _expand(xs, ls, ca * cb, -ca * cb, top).items():
                        acc[m] = get(m, 0) + v
                    continue
                m = (xs + ks, ls)
                acc[m] = get(m, 0) + ca * cb
            continue
        rj = ys[::-1]
        lj = len(rj)
        for (ks, ls), cb in scan if index is None else index.get(ys[-1], empty):
            lk = len(ks)
            if lj <= lk:
                if ks[:lj] != rj:
                    continue
                if top and lj == lk and xs[-1:] == ls[:1] == (top,):
                    for m, v in _expand(xs, ls, ca * cb, -ca * cb, top).items():
                        acc[m] = get(m, 0) + v
                    continue
                m = (xs + ks[lj:], ls)
            elif rj[:lk] == ks:
                m = (xs, ys[: lj - lk] + ls)
            else:
                continue
            acc[m] = get(m, 0) + ca * cb


class _LetterTexts(dict):
    """Letter -> text, each text made on first use; one map serves one printing call."""

    def __missing__(self, letter: int) -> str:
        text = self[letter] = str(letter)
        return text


def _word_text(tag: str, word, letters: _LetterTexts) -> str:
    """A word's block text, such as x[1,2]."""
    return tag + "[" + ",".join(map(letters.__getitem__, word)) + "]"


def _mono_text(xs, ys) -> str:
    letters = _LetterTexts()
    return "*".join([_word_text(tag, w, letters) for tag, w in (("x", xs), ("y", ys)) if w]) or "1"


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
        return _mono_text(self.xs.letters, self.ys.letters)


class _Terms(Mapping):
    """Read-only Monomial -> Scalar view over an element's raw term map."""

    __slots__ = ("_spec", "_n", "_raw")

    def __init__(self, element: "CohnElement"):
        self._spec, self._n, self._raw = element.spec, element.n, element._terms

    def __len__(self) -> int:
        return len(self._raw)

    def __iter__(self):
        n = self._n
        for xs, ys in self._raw:
            yield Monomial(Word(xs, n), Word(ys, n))

    def __getitem__(self, mono: Monomial) -> Scalar:
        if isinstance(mono, Monomial) and mono.n == self._n:
            value = self._raw.get((mono.xs.letters, mono.ys.letters))
            if value is not None:
                return Scalar(self._spec, value)
        raise KeyError(mono)


_E = TypeVar("_E", bound="_Element")


class _Element:
    """What the Cohn algebra and its Leavitt quotient share: a field, an
    alphabet size and a raw term map, with the operations that do not
    depend on the algebra's product.

    The term map never stores a zero coefficient, so equality of elements is
    equality of the maps.  Instances are immutable: no method mutates the
    map, so results may share it.  Elements of two different classes never
    mix: `_check` and `==` compare exact types.
    """

    __slots__ = ("spec", "n", "_terms")

    @classmethod
    def _raw(cls: Type[_E], spec: FieldSpec, n: int, terms: Dict) -> _E:
        """Trusted constructor: terms is a raw map in canonical form, owned by the result."""
        e = object.__new__(cls)
        e.spec = spec
        e.n = n
        e._terms = terms
        return e

    def _like(self: _E, terms: Dict) -> _E:
        e = object.__new__(type(self))
        e.spec = self.spec
        e.n = self.n
        e._terms = terms
        return e

    @classmethod
    def zero(cls: Type[_E], n: int, spec: FieldSpec) -> _E:
        _check_alphabet(n)
        return cls._raw(spec, n, {})

    @classmethod
    def one(cls: Type[_E], n: int, spec: FieldSpec) -> _E:
        _check_alphabet(n)
        return cls._raw(spec, n, {((), ()): _raw_one(spec)})

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
        out = dict(self._terms)
        for m, c in other._terms.items():
            _absorb(out, m, c, p)
        return self._like(out)

    def __neg__(self: _E) -> _E:
        p = self.spec.characteristic
        return self._like({m: p - c if p else -c for m, c in self._terms.items()})

    def __sub__(self: _E, other: _E) -> _E:
        self._check(other)
        p = self.spec.characteristic
        out = dict(self._terms)
        for m, c in other._terms.items():
            _absorb(out, m, p - c if p else -c, p)
        return self._like(out)

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
        return self._like({m: v * c for m, c in self._terms.items()})

    def __mul__(self, other):
        """Multiplication by a Scalar or an int; each algebra multiplies its own elements."""
        if isinstance(other, Scalar):
            return self.scale(other)
        p = self.spec.characteristic
        return self._times(other % p if p else other)

    def __rmul__(self, other):
        if isinstance(other, (Scalar, int)):
            return self * other
        return NotImplemented

    def __pow__(self: _E, exponent: int) -> _E:
        _check_int(exponent, "exponent")
        if exponent < 1:
            raise ValueError(f"exponent must be at least 1, got {exponent}")
        out = self
        for _ in range(exponent - 1):
            out = out * self
        return out

    def _product(self, other: "_Element", commutator: bool, top: int) -> Dict:
        """The raw map of ab, or of ab - ba when commutator is set, built from one integer accumulator.

        A top letter n multiplies normal forms in L(n); 0 gives the Cohn product.
        Over Q each distinct output value is one Fraction, shared by every term that has it.
        """
        p = self.spec.characteristic
        a, b, den = self._terms, other._terms, 1
        if p == 0:
            # integer numerators, so that the pair loop only multiplies and
            # adds ints; the common denominator is da * db for ab and for ba
            da, a = _integral(a)
            db, b = _integral(b)
            den = da * db
        acc: Dict = {}
        _accumulate(acc, a, b, 1, top)
        if commutator:
            _accumulate(acc, b, a, -1, top)
        if p == 0:
            value = {v: Fraction(v, den) for v in set(acc.values()) if v}
            return {m: value[v] for m, v in acc.items() if v}
        out = {}
        for m, v in acc.items():
            v %= p
            if v:
                out[m] = v
        return out

    def trace(self) -> Scalar:
        """Sum of the coefficients of the monomials x_I y_J with I = rev(J).

        This is the linear functional sending x_I y_J to 1 when I = rev(J)
        and to 0 otherwise; it satisfies trace(ab) = trace(ba).
        """
        total = sum(c for (xs, ys), c in self._terms.items() if xs == ys[::-1])
        return Scalar(self.spec, total)

    def __eq__(self, other) -> bool:
        return (
            type(other) is type(self)
            and self.spec == other.spec
            and self.n == other.n
            and self._terms == other._terms
        )

    def __hash__(self):
        return hash((self.spec, self.n, frozenset(self._terms.items())))

    def __str__(self) -> str:
        # the map keeps every coefficient alive, so no id is reused in one call
        terms = self._terms
        if not terms:
            return "0"
        rational = self.spec.characteristic == 0
        forms, xtext, ytext, letters, chunks = {}, {}, {}, _LetterTexts(), []
        for (xs, ys), c in sorted(terms.items(), key=lambda item: _order(item[0])):
            form = forms.get(id(c))
            if form is None:
                negative = rational and c < 0
                mag = str(-c if negative else c)
                form = forms[id(c)] = (" - " if negative else " + ", mag, "" if mag == "1" else mag + "*")
            sep, mag, prefix = form
            x = xtext.get(xs) or xtext.setdefault(xs, _word_text("x", xs, letters)) if xs else ""
            y = ytext.get(ys) or ytext.setdefault(ys, _word_text("y", ys, letters)) if ys else ""
            mono = x + "*" + y if x and y else x or y
            chunks += (sep, prefix + mono if mono else mag)
        chunks[0] = "-" if chunks[0] == " - " else ""
        return "".join(chunks)

    def __repr__(self) -> str:
        return f"<{type(self).__name__} n={self.n} over {self.spec}: {self}>"


class CohnElement(_Element):
    """A finite linear combination of basis monomials, in canonical sparse form.

    `terms` is a read-only Monomial -> Scalar view over the term map.
    """

    __slots__ = ()

    def __init__(self, spec: FieldSpec, n: int, terms: Mapping):
        _check_alphabet(n)
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
                raw[(m.xs.letters, m.ys.letters)] = c.value
        self.spec = spec
        self.n = n
        self._terms = raw

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
        for m, c in self._terms.items():
            parts.setdefault(len(m[0]) - len(m[1]), {})[m] = c
        return {d: self._like(t) for d, t in sorted(parts.items())}

    def __mul__(self, other):
        if isinstance(other, (Scalar, int)):
            return super().__mul__(other)
        self._check(other)
        return self._like(self._product(other, False, 0))

    def bracket(self, other: "CohnElement") -> "CohnElement":
        """The commutator ab - ba, summed in one pass over both products."""
        self._check(other)
        return self._like(self._product(other, True, 0))


def x_word(word: Word, spec: FieldSpec) -> CohnElement:
    return CohnElement._raw(spec, word.n, {(word.letters, ()): _raw_one(spec)})


def y_word(word: Word, spec: FieldSpec) -> CohnElement:
    return CohnElement._raw(spec, word.n, {((), word.letters): _raw_one(spec)})


def x_gen(i: int, n: int, spec: FieldSpec) -> CohnElement:
    return CohnElement._raw(spec, n, {(_checked_letters((i,), n), ()): _raw_one(spec)})


def y_gen(i: int, n: int, spec: FieldSpec) -> CohnElement:
    return CohnElement._raw(spec, n, {((), _checked_letters((i,), n)): _raw_one(spec)})


def ideal_generator(n: int, spec: FieldSpec) -> CohnElement:
    """The element 1 - sum_i x_i y_i whose two-sided ideal defines the Leavitt quotient."""
    _check_alphabet(n)
    one = _raw_one(spec)
    minus_one = spec.characteristic - 1 if spec.characteristic else -one
    terms = {((), ()): one}
    for i in range(1, n + 1):
        terms[((i,), (i,))] = minus_one
    return CohnElement._raw(spec, n, terms)


# --- canonical element text -------------------------------------------------
#
# The printed form is "c1*m1 + c2*m2 + ...", with monomials like
# "x[1,2]*y[2,1]" and bare coefficients ("1/2" over Q, residues over F_p).
# parse_element reads that form back; it also accepts any product of
# x/y blocks and scalar factors, multiplying them out in the algebra.

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<block>[xy]\[[0-9,\s]*\])|(?P<num>\d+)|(?P<sym>[+\-*/]))"
)


def _tokenize_element(text: str):
    pos, tokens = 0, []
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            if text[pos:].strip():
                raise ValueError(f"bad element text at position {pos}: {text[pos:]!r}")
            break
        if m.lastgroup == "block":
            blk = m.group("block")
            inner = blk[2:-1].strip()
            letters = tuple(int(t) for t in inner.split(",")) if inner else ()
            if not letters:
                raise ValueError(f"empty generator word in {blk!r}")
            tokens.append((blk[0], letters))
        elif m.lastgroup == "num":
            tokens.append(("int", int(m.group("num"))))
        else:
            tokens.append((m.group("sym"), None))
        pos = m.end()
    return tokens


def parse_element(text: str, n: int, spec: FieldSpec) -> CohnElement:
    """Read an element back from its canonical textual form."""
    tokens = _tokenize_element(text)
    if not tokens:
        raise ValueError("empty element text")
    _check_alphabet(n)
    p = spec.characteristic
    one = _raw_one(spec)
    out: Dict = {}
    idx = 0
    first = True
    while idx < len(tokens):
        sign = one
        kind, _ = tokens[idx]
        if kind in "+-":
            if kind == "-":
                sign = p - 1 if p else -one
            idx += 1
        elif not first:
            raise ValueError(f"expected '+' or '-' between terms, got {kind!r}")
        first = False
        # a term is one monomial, None once its blocks multiply to zero, times a coefficient
        mono, coeff = ((), ()), sign
        expect_factor = True
        while idx < len(tokens):
            kind, val = tokens[idx]
            if kind in "+-":
                break
            if kind == "*":
                if expect_factor:
                    raise ValueError("misplaced '*' in element text")
                idx += 1
                expect_factor = True
                continue
            if not expect_factor:
                raise ValueError(f"missing '*' before {kind!r} factor")
            if kind == "int":
                c = val % p if p else val
                if idx + 2 < len(tokens) and tokens[idx + 1][0] == "/" and tokens[idx + 2][0] == "int":
                    den = tokens[idx + 2][1]
                    idx += 2
                    if p:
                        c = (spec.from_int(val) / spec.from_int(den)).value
                    else:
                        c = Fraction(val, den)
                coeff = coeff * c % p if p else coeff * c
            elif kind in ("x", "y"):
                letters = _checked_letters(val, n)
                if mono is not None:
                    block = (letters, ()) if kind == "x" else ((), letters)
                    product: Dict = {}
                    _accumulate(product, {mono: 1}, {block: 1}, 1, 0)
                    mono = next(iter(product), None)
            else:
                raise ValueError(f"unexpected {kind!r} in element text")
            idx += 1
            expect_factor = False
        if expect_factor:
            raise ValueError("dangling operator in element text")
        if mono is not None and coeff:
            _absorb(out, mono, coeff, p)
    return CohnElement._raw(spec, n, out)

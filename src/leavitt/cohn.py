"""Arithmetic in the Cohn algebra of order n.

The algebra is generated by x_1..x_n, y_1..y_n subject to y_i x_j = delta_ij.
The products x_I y_J, indexed by pairs of words, form a free basis, so an
element is stored as a sparse mapping from monomials to nonzero scalars.

Internally that mapping is a plain dict {(xs, ys): value}: xs and ys are the
letter tuples of I and J, and value is what `Scalar.value` would hold (a
reduced `Fraction` over Q, an int in [1, p) over F_p), never zero.  The field
and the alphabet size are stored once per element.  Public constructors check
their input; ring operations build results through the trusted `_raw`.
"""

from __future__ import annotations

import random
import re
from collections.abc import Mapping
from fractions import Fraction
from math import lcm
from typing import Dict, Optional

from .coeffs import FieldSpec, Scalar
from .words import Word, _check_alphabet, _checked_letters, random_word

__all__ = [
    "Monomial",
    "CohnElement",
    "ideal_generator",
    "random_element",
    "x_word",
    "y_word",
    "x_gen",
    "y_gen",
    "parse_element",
]


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


def _mono_text(xs, ys) -> str:
    if not xs and not ys:
        return "1"
    parts = []
    if xs:
        parts.append("x[" + ",".join(map(str, xs)) + "]")
    if ys:
        parts.append("y[" + ",".join(map(str, ys)) + "]")
    return "*".join(parts)


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


class CohnElement:
    """A finite linear combination of basis monomials, in canonical sparse form.

    The term map never stores a zero coefficient, so equality of elements is
    equality of the maps.  Instances are immutable: `terms` is a read-only
    Monomial -> Scalar view, and no method mutates the map behind it.
    """

    __slots__ = ("spec", "n", "_terms")

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

    @classmethod
    def _raw(cls, spec: FieldSpec, n: int, terms: Dict) -> "CohnElement":
        """Trusted constructor: terms is a raw map in canonical form, owned by the result."""
        e = object.__new__(cls)
        e.spec = spec
        e.n = n
        e._terms = terms
        return e

    @property
    def terms(self) -> Mapping:
        return _Terms(self)

    @classmethod
    def zero(cls, n: int, spec: FieldSpec) -> "CohnElement":
        _check_alphabet(n)
        return cls._raw(spec, n, {})

    @classmethod
    def one(cls, n: int, spec: FieldSpec) -> "CohnElement":
        _check_alphabet(n)
        return cls._raw(spec, n, {((), ()): _raw_one(spec)})

    @classmethod
    def from_monomial(
        cls, mono: Monomial, spec: FieldSpec, coeff: Optional[Scalar] = None
    ) -> "CohnElement":
        return cls(spec, mono.n, {mono: spec.one() if coeff is None else coeff})

    def _check(self, other: "CohnElement") -> None:
        if not isinstance(other, CohnElement):
            raise TypeError(f"expected CohnElement, got {type(other).__name__}")
        if other.spec != self.spec:
            raise ValueError(f"mismatched fields: {self.spec} vs {other.spec}")
        if other.n != self.n:
            raise ValueError(f"mismatched alphabet sizes: {self.n} vs {other.n}")

    def _like(self, terms: Dict) -> "CohnElement":
        return CohnElement._raw(self.spec, self.n, terms)

    def is_zero(self) -> bool:
        return not self._terms

    def zero_like(self) -> "CohnElement":
        return self._like({})

    def __add__(self, other: "CohnElement") -> "CohnElement":
        self._check(other)
        p = self.spec.characteristic
        out = dict(self._terms)
        for m, c in other._terms.items():
            _absorb(out, m, c, p)
        return self._like(out)

    def __neg__(self) -> "CohnElement":
        p = self.spec.characteristic
        return self._like({m: p - c if p else -c for m, c in self._terms.items()})

    def __sub__(self, other: "CohnElement") -> "CohnElement":
        self._check(other)
        return self + (-other)

    def scale(self, s: Scalar) -> "CohnElement":
        if not isinstance(s, Scalar):
            raise TypeError(f"expected Scalar, got {type(s).__name__}")
        if s.spec != self.spec:
            raise ValueError(f"mismatched fields: {self.spec} vs {s.spec}")
        return self._times(s.value)

    def _times(self, v) -> "CohnElement":
        """Multiply every coefficient by v, an int (reduced mod p over F_p) or a Fraction."""
        if not v:
            return self.zero_like()
        p = self.spec.characteristic
        if p:
            return self._like({m: v * c % p for m, c in self._terms.items()})
        return self._like({m: v * c for m, c in self._terms.items()})

    def __mul__(self, other):
        if isinstance(other, Scalar):
            return self.scale(other)
        p = self.spec.characteristic
        if isinstance(other, int):
            return self._times(other % p if p else other)
        self._check(other)
        left, right = self._terms, other._terms
        if p == 0:
            # Integer numerators over a common denominator per factor, so
            # that the pair loop below only multiplies and adds ints.
            dl = lcm(*(c.denominator for c in left.values()))
            dr = lcm(*(c.denominator for c in right.values()))
            left = {m: c.numerator * (dl // c.denominator) for m, c in left.items()}
            right = {m: c.numerator * (dr // c.denominator) for m, c in right.items()}
        # x_I y_J * x_K y_L: y_J x_K telescopes under y_i x_j = delta_ij and
        # survives exactly when one of rev(J), K is a prefix of the other;
        # the unconsumed letters stay on their own side.
        rights = [(ks, ls, len(ks), cb) for (ks, ls), cb in right.items()]
        acc: Dict = {}
        get = acc.get
        for (xs, ys), ca in left.items():
            rj = ys[::-1]
            lj = len(rj)
            for ks, ls, lk, cb in rights:
                if lj <= lk:
                    if ks[:lj] != rj:
                        continue
                    m = (xs + ks[lj:], ls)
                elif rj[:lk] == ks:
                    m = (xs, ys[: lj - lk] + ls)
                else:
                    continue
                acc[m] = get(m, 0) + ca * cb
        if p == 0:
            den = dl * dr
            return self._like({m: Fraction(v, den) for m, v in acc.items() if v})
        out = {}
        for m, v in acc.items():
            v %= p
            if v:
                out[m] = v
        return self._like(out)

    def __rmul__(self, other):
        if isinstance(other, (Scalar, int)):
            return self * other
        return NotImplemented

    def __pow__(self, exponent: int) -> "CohnElement":
        if exponent < 1:
            raise ValueError(f"exponent must be at least 1, got {exponent}")
        out = self
        for _ in range(exponent - 1):
            out = out * self
        return out

    def bracket(self, other: "CohnElement") -> "CohnElement":
        return self * other - other * self

    def trace(self) -> Scalar:
        """Sum of the coefficients of the monomials x_I y_J with I = rev(J).

        This is the linear functional sending x_I y_J to 1 when I = rev(J)
        and to 0 otherwise; it satisfies trace(ab) = trace(ba).
        """
        total = sum(c for (xs, ys), c in self._terms.items() if xs == ys[::-1])
        return Scalar(self.spec, total)

    def degree_split(self) -> Dict[int, "CohnElement"]:
        """Partition into homogeneous parts under deg(x_i) = 1, deg(y_i) = -1."""
        parts: Dict[int, Dict] = {}
        for m, c in self._terms.items():
            parts.setdefault(len(m[0]) - len(m[1]), {})[m] = c
        return {d: self._like(t) for d, t in sorted(parts.items())}

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, CohnElement)
            and self.spec == other.spec
            and self.n == other.n
            and self._terms == other._terms
        )

    def __hash__(self):
        return hash((self.spec, self.n, frozenset(self._terms.items())))

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        rational = self.spec.characteristic == 0
        chunks = []
        for m in sorted(self._terms, key=_order):
            c = self._terms[m]
            negative = rational and c < 0
            mag = -c if negative else c
            if not m[0] and not m[1]:
                body = str(mag)
            elif mag == 1:
                body = _mono_text(*m)
            else:
                body = f"{mag}*{_mono_text(*m)}"
            if not chunks:
                chunks.append(f"-{body}" if negative else body)
            else:
                chunks.append(f" - {body}" if negative else f" + {body}")
        return "".join(chunks)

    def __repr__(self) -> str:
        return f"<CohnElement n={self.n} over {self.spec}: {self}>"


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


def random_element(
    n: int,
    spec: FieldSpec,
    max_word_len: int,
    max_terms: int,
    seed,
) -> CohnElement:
    """A reproducible pseudo-random element within the given bounds.

    Draws max_terms monomials with word lengths at most max_word_len and
    nonzero coefficients; repeated draws of the same monomial may cancel,
    so max_terms is an upper bound on the support size.
    """
    if max_word_len < 0 or max_terms < 0:
        raise ValueError("bounds must be non-negative")
    rng = random.Random(seed)
    out = CohnElement.zero(n, spec)
    for _ in range(max_terms):
        mono = Monomial(random_word(n, max_word_len, rng), random_word(n, max_word_len, rng))
        out = out + CohnElement.from_monomial(mono, spec, _random_nonzero_scalar(spec, rng))
    return out


def _random_nonzero_scalar(spec: FieldSpec, rng: random.Random) -> Scalar:
    p = spec.characteristic
    if p == 0:
        num = rng.choice([i for i in range(-6, 7) if i != 0])
        return Scalar(spec, Fraction(num, rng.randint(1, 4)))
    return Scalar(spec, rng.randint(1, p - 1)) if p > 2 else spec.one()


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
        term = CohnElement._raw(spec, n, {((), ()): sign})
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
                coeff = val % p if p else val
                if idx + 2 < len(tokens) and tokens[idx + 1][0] == "/" and tokens[idx + 2][0] == "int":
                    den = tokens[idx + 2][1]
                    idx += 2
                    if p:
                        coeff = (spec.from_int(val) / spec.from_int(den)).value
                    else:
                        coeff = Fraction(val, den)
                term = term._times(coeff)
            elif kind in ("x", "y"):
                letters = _checked_letters(val, n)
                key = (letters, ()) if kind == "x" else ((), letters)
                term = term * CohnElement._raw(spec, n, {key: one})
            else:
                raise ValueError(f"unexpected {kind!r} in element text")
            idx += 1
            expect_factor = False
        if expect_factor:
            raise ValueError("dangling operator in element text")
        for m, c in term._terms.items():
            _absorb(out, m, c, p)
    return CohnElement._raw(spec, n, out)

"""Square matrices over a coefficient algebra (Cohn or Leavitt elements).

The entry type only needs ring operations, `is_zero`, `zero_like`, and
`trace`; both element classes in this package provide them, so the same
matrix code serves the plain algebra and its quotient.  A sum of products
(a product, a bracket, a witness's bracket sum) shares one accumulator per
position: one `_sum_products` call sums every entry product landing there
and reads the entry algebra's product from the entries' class.
"""

from __future__ import annotations

import json
from itertools import chain, repeat
from typing import Dict, List, Sequence

from .coeffs import FieldSpec, Scalar, _check_int, _check_shape
from .cohn import CohnElement, _Element, parse_element
from .leavitt import LeavittElement, normal_form

__all__ = ["MatrixElement", "unit", "identity_matrix", "matrix_from_strings"]

def _check_entry(e) -> None:
    if not isinstance(e, (CohnElement, LeavittElement)):
        raise TypeError(f"entry must be a CohnElement or LeavittElement, got {type(e).__name__}: {e!r}")


def _square_size(rows: Sequence[Sequence]) -> int:
    d = len(rows)
    if d < 1 or not all(map(d.__eq__, map(len, rows))):
        raise ValueError("entries must form a non-empty square array")
    return d


class MatrixElement:
    """A d x d matrix with entries in one algebra, stored sparsely.

    `entries` maps 0-based positions (i, j) to the nonzero entries; every
    position it does not hold is zero, so equal matrices have equal maps.
    The algebra's zero element is kept alongside, so that even a matrix with
    no stored entry knows its field, alphabet and entry algebra.
    """

    __slots__ = ("d", "entries", "_zero")

    def __init__(self, entries: Sequence[Sequence]):
        rows = tuple(tuple(r) for r in entries)
        d = _square_size(rows)
        first = rows[0][0]
        stored = {}
        for i, row in enumerate(rows):
            for j, e in enumerate(row):
                _check_entry(e)
                if type(e) is not type(first) or e.spec != first.spec or e.n != first.n:
                    raise ValueError("entries must share one algebra, field and alphabet")
                if not e.is_zero():
                    stored[(i, j)] = e
        self.d = d
        self.entries = stored
        self._zero = first.zero_like()

    @classmethod
    def _from_map(cls, zero, d: int, entries: Dict) -> "MatrixElement":
        """Trusted constructor: entries share zero's algebra and none is zero."""
        m = cls.__new__(cls)
        m.d = d
        m.entries = entries
        m._zero = zero
        return m

    @classmethod
    def zero(cls, element, d: int) -> "MatrixElement":
        """The d x d zero matrix over the algebra of the given element."""
        _check_entry(element)
        _check_shape(element.n, d)
        return cls._from_map(element.zero_like(), d, {})

    @property
    def spec(self) -> FieldSpec:
        return self._zero.spec

    @property
    def n(self) -> int:
        return self._zero.n

    def entry(self, i: int, j: int):
        """The entry at 0-based position (i, j), the zero element if none is stored."""
        _check_int(i, "i")
        _check_int(j, "j")
        if not (0 <= i < self.d and 0 <= j < self.d):
            raise IndexError(f"position ({i}, {j}) outside a {self.d} x {self.d} matrix")
        return self.entries.get((i, j), self._zero)

    def _check(self, other: "MatrixElement") -> None:
        if not isinstance(other, MatrixElement):
            raise TypeError(f"expected MatrixElement, got {type(other).__name__}")
        if other.d != self.d:
            raise ValueError(f"dimension mismatch: {self.d} vs {other.d}")
        if other._zero != self._zero:
            raise ValueError("mismatched field, alphabet or entry algebra")

    def _like(self, entries: Dict) -> "MatrixElement":
        return MatrixElement._from_map(self._zero, self.d, entries)

    def _map(self, op) -> "MatrixElement":
        out = {}
        for pos, e in self.entries.items():
            v = op(e)
            if not v.is_zero():
                out[pos] = v
        return self._like(out)

    def is_zero(self) -> bool:
        return not self.entries

    def __add__(self, other: "MatrixElement") -> "MatrixElement":
        self._check(other)
        out = dict(self.entries)
        for pos, b in other.entries.items():
            a = out.get(pos)
            value = b if a is None else a + b
            if value.is_zero():
                del out[pos]  # only a + b can vanish, and then pos is stored
            else:
                out[pos] = value
        return self._like(out)

    def __neg__(self) -> "MatrixElement":
        return self._like({pos: -e for pos, e in self.entries.items()})

    def __sub__(self, other: "MatrixElement") -> "MatrixElement":
        self._check(other)
        return self + -other

    def scale(self, s: Scalar) -> "MatrixElement":
        return self._map(lambda e: e * s)

    def __mul__(self, other):
        if isinstance(other, (Scalar, int)):
            return self._map(lambda e: e * other)
        self._check(other)
        return _combine(self._zero, self.d, ((self, other, 1),))

    def __rmul__(self, other):
        if isinstance(other, (Scalar, int)):
            return self * other
        return NotImplemented

    def bracket(self, other: "MatrixElement") -> "MatrixElement":
        """The commutator AB - BA, summed with no intermediate product."""
        self._check(other)
        return _combine(self._zero, self.d, ((self, other, 1), (other, self, -1)))

    def trace(self) -> Scalar:
        """Sum of the entry traces along the diagonal."""
        # the zero entry's trace raises wherever the entry trace is undefined
        total = self._zero.trace()
        for (i, j), e in self.entries.items():
            if i == j:
                total = total + e.trace()
        return total

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MatrixElement)
            and self.d == other.d
            and self._zero == other._zero
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.d, self._zero, frozenset(self.entries.items())))

    def to_strings(self) -> List[List[str]]:
        """The dense array of entry strings, "0" at every position not stored."""
        return self._strings({})

    def _strings(self, texts: Dict) -> List[List[str]]:
        """to_strings, printing each entry object once through texts, an id(entry) -> text
        map whose entries the caller keeps alive, so that no id is reused."""
        rows = [*map(list.copy, repeat(["0"] * self.d, self.d))]
        for (i, j), e in self.entries.items():
            rows[i][j] = texts.get(id(e)) or texts.setdefault(id(e), str(e))
        return rows

    def __str__(self) -> str:
        return json.dumps(self.to_strings())

    def __repr__(self) -> str:
        return f"<MatrixElement d={self.d} n={self.n} over {self.spec}: {self}>"


def _combine(zero, d: int, products) -> MatrixElement:
    """The sum of sign * A * B over triples (A, B, sign) of d x d matrices over zero's algebra."""
    cells: Dict = {}
    for A, B, sign in products:
        rows: Dict[int, List] = {}
        for (k, j), e in B.entries.items():
            rows.setdefault(k, []).append((j, e))
        for (i, k), e in A.entries.items():
            for j, f in rows.get(k, ()):
                cells.setdefault((i, j), []).append((e, f, sign))
    out = {}
    for pos, triples in cells.items():
        terms, den = _Element._sum_products(triples)
        if terms:
            out[pos] = zero._like(terms, den)
    return MatrixElement._from_map(zero, d, out)


def unit(element, i: int, j: int, d: int) -> MatrixElement:
    """The matrix carrying the given element at (i, j) and zero elsewhere.

    Indices are 1-based.
    """
    _check_int(i, "i")
    _check_int(j, "j")
    _check_entry(element)
    _check_shape(element.n, d)
    if not (1 <= i <= d and 1 <= j <= d):
        raise ValueError(f"unit position ({i}, {j}) outside a {d} x {d} matrix")
    entries = {} if element.is_zero() else {(i - 1, j - 1): element}
    return MatrixElement._from_map(element.zero_like(), d, entries)


def identity_matrix(value, d: int) -> MatrixElement:
    """The d x d matrix with value on the diagonal and zero elsewhere.

    With the algebra identity element as value this is the identity matrix;
    any other value gives its diagonal (unital) embedding.
    """
    m = MatrixElement.zero(value, d)
    return m if value.is_zero() else m._like({(r, r): value for r in range(d)})


_NOT_ROWS = "a matrix must be a list of lists of element strings"


def matrix_from_strings(rows: Sequence[Sequence[str]], n: int, spec: FieldSpec) -> MatrixElement:
    """Build a Leavitt matrix from a square array (list of lists) of element strings.

    Each distinct text other than "0" is parsed once and brought to normal form.
    """
    return _from_strings(rows, LeavittElement.zero(n, spec), {})


def _from_strings(rows, zero: LeavittElement, parsed: Dict) -> MatrixElement:
    """matrix_from_strings in zero's algebra, reading texts through parsed, one document's text -> entry map."""
    # One pass checks the whole array before any entry is parsed.  A row's d cells joined by commas
    # equal d "0"s so joined exactly when each cell is the str "0" (a zero row, most rows of a unit
    # matrix), and join raises TypeError on a cell that is not a str.
    d = len(rows) if isinstance(rows, (list, tuple)) else 0
    zeros, todo = ("0," * d)[:-1], []
    if d:
        for i, row in enumerate(rows):
            if not (isinstance(row, (list, tuple)) and len(row) == d):
                break
            try:
                if ",".join(row) != zeros:
                    todo.append((i, row))
            except TypeError:
                break
        else:
            n, spec, entries = zero.n, zero.spec, {}
            for i, row in todo:
                for j, text in enumerate(row):
                    if text == "0":
                        continue
                    e = parsed.get(text)
                    if e is None:
                        e = parsed[text] = normal_form(parse_element(text, n, spec))
                    if not e.is_zero():
                        entries[(i, j)] = e
            return MatrixElement._from_map(zero, d, entries)
    # on a fault, the full checks name it: the types of the rows, then of the cells, then the shape
    if isinstance(rows, (list, tuple)) and all(map(isinstance, rows, repeat((list, tuple)))):
        if all(map(isinstance, chain.from_iterable(rows), repeat(str))):
            _square_size(rows)
    raise ValueError(_NOT_ROWS)

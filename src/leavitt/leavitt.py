"""The Leavitt algebra of order n as a quotient of the Cohn algebra.

Coset representatives are Cohn elements in which no monomial contains the
junction x_n y_n (an x-word ending in the top letter directly followed by a
y-word starting with it).  Such a junction monomial x_{I'n} y_{nJ'} rewrites,
using 1 = sum_i x_i y_i, to

    x_{I'} y_{J'} - sum_{i=1}^{n-1} x_{I'i} y_{iJ'},

which differs from it by a multiple of x_{I'} (1 - sum_i x_i y_i) y_{J'},
an element of the defining ideal.  The replacement terms indexed by i < n
end their x-word in a letter below n and so carry no junction; the only
candidate junction monomial left is x_{I'} y_{J'}, two letters shorter.
Reduction therefore terminates, and the junction-free result is used as
the canonical coset representative.
"""

from __future__ import annotations

import random
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from .coeffs import FieldSpec, Scalar
from .cohn import CohnElement, _mono_text, _order, x_word, y_word
from .words import Word

__all__ = [
    "LeavittElement",
    "RewriteStep",
    "normal_form",
    "normal_form_with_trace",
    "independence_check",
    "dim_probe",
]


def _has_junction(xs, ys, n: int) -> bool:
    return bool(xs) and bool(ys) and xs[-1] == n and ys[0] == n


class RewriteStep(NamedTuple):
    """One application of the junction rewrite, recorded as an ideal multiple.

    Summing coefficient * x_left * (1 - sum_i x_i y_i) * y_right over all
    steps reproduces exactly the difference between the input element and
    its normal form.
    """

    coefficient: Scalar
    left: Word
    right: Word


def _reduce(
    element: CohnElement,
    rng: Optional[random.Random],
    trace: Optional[List[RewriteStep]],
) -> CohnElement:
    spec, n = element.spec, element.n
    p = spec.characteristic
    terms = dict(element._terms)
    pending = [m for m in terms if _has_junction(*m, n)]
    queued = set(pending)

    def absorb(m, c) -> None:
        acc = terms.get(m)
        if acc is not None:
            c = (acc + c) % p if p else acc + c
            if not c:
                del terms[m]
                return
        terms[m] = c
        if _has_junction(*m, n) and m not in queued:
            pending.append(m)
            queued.add(m)

    while pending:
        idx = rng.randrange(len(pending)) if rng is not None else len(pending) - 1
        m = pending.pop(idx)
        queued.discard(m)
        s = terms.pop(m, None)
        if s is None:
            continue  # cancelled since it was queued
        left, right = m[0][:-1], m[1][1:]
        neg = p - s if p else -s
        if trace is not None:
            trace.append(RewriteStep(Scalar(spec, neg), Word(left, n), Word(right, n)))
        absorb((left, right), s)
        for i in range(1, n):
            absorb((left + (i,), (i,) + right), neg)
    return CohnElement._raw(spec, n, terms)


def normal_form(c: CohnElement, rng: Optional[random.Random] = None) -> "LeavittElement":
    """Reduce a Cohn element to its junction-free coset representative.

    An optional rng randomizes the order in which junction terms are
    rewritten; the result is the same either way (the rewriting system is
    confluent), which the test suite checks empirically.
    """
    return LeavittElement._wrap(_reduce(c, rng, None))


def normal_form_with_trace(
    c: CohnElement, rng: Optional[random.Random] = None
) -> Tuple["LeavittElement", List[RewriteStep]]:
    """Normal form plus the rewrite trace witnessing membership in the ideal."""
    trace: List[RewriteStep] = []
    return LeavittElement._wrap(_reduce(c, rng, trace)), trace


class LeavittElement:
    """An element of the Leavitt algebra, held as its normal-form representative.

    Arithmetic is project-after-compute: operate on representatives in the
    Cohn algebra, then reduce.  Equality of elements is equality of normal
    forms.
    """

    __slots__ = ("rep",)

    def __init__(self, rep: CohnElement):
        if not isinstance(rep, CohnElement):
            raise TypeError(f"expected CohnElement, got {type(rep).__name__}")
        for xs, ys in rep._terms:
            if _has_junction(xs, ys, rep.n):
                raise ValueError(
                    f"representative is not in normal form: junction monomial {_mono_text(xs, ys)}"
                )
        self.rep = rep

    @classmethod
    def _wrap(cls, rep: CohnElement) -> "LeavittElement":
        """Trusted constructor: rep is already junction-free."""
        e = object.__new__(cls)
        e.rep = rep
        return e

    @classmethod
    def zero(cls, n: int, spec: FieldSpec) -> "LeavittElement":
        return cls._wrap(CohnElement.zero(n, spec))

    @classmethod
    def one(cls, n: int, spec: FieldSpec) -> "LeavittElement":
        return cls._wrap(CohnElement.one(n, spec))

    @classmethod
    def x_gen(cls, i: int, n: int, spec: FieldSpec) -> "LeavittElement":
        return cls._wrap(x_word(Word((i,), n), spec))

    @classmethod
    def y_gen(cls, i: int, n: int, spec: FieldSpec) -> "LeavittElement":
        return cls._wrap(y_word(Word((i,), n), spec))

    @property
    def spec(self) -> FieldSpec:
        return self.rep.spec

    @property
    def n(self) -> int:
        return self.rep.n

    def _check(self, other: "LeavittElement") -> None:
        if not isinstance(other, LeavittElement):
            raise TypeError(f"expected LeavittElement, got {type(other).__name__}")

    def is_zero(self) -> bool:
        return self.rep.is_zero()

    def zero_like(self) -> "LeavittElement":
        return LeavittElement._wrap(self.rep.zero_like())

    def __add__(self, other: "LeavittElement") -> "LeavittElement":
        # junction-free terms stay junction-free under addition
        self._check(other)
        return LeavittElement._wrap(self.rep + other.rep)

    def __sub__(self, other: "LeavittElement") -> "LeavittElement":
        self._check(other)
        return LeavittElement._wrap(self.rep - other.rep)

    def __neg__(self) -> "LeavittElement":
        return LeavittElement._wrap(-self.rep)

    def scale(self, s: Scalar) -> "LeavittElement":
        return LeavittElement._wrap(self.rep.scale(s))

    def __mul__(self, other):
        if isinstance(other, (Scalar, int)):
            return LeavittElement._wrap(self.rep * other)
        self._check(other)
        return normal_form(self.rep * other.rep)

    def __rmul__(self, other):
        if isinstance(other, (Scalar, int)):
            return self * other
        return NotImplemented

    def __pow__(self, exponent: int) -> "LeavittElement":
        if exponent < 1:
            raise ValueError(f"exponent must be at least 1, got {exponent}")
        out = self
        for _ in range(exponent - 1):
            out = out * self
        return out

    def bracket(self, other: "LeavittElement") -> "LeavittElement":
        self._check(other)
        return normal_form(self.rep.bracket(other.rep))

    def trace(self) -> Scalar:
        """The trace functional inherited from the Cohn algebra.

        Only defined when the characteristic divides n - 1; otherwise the
        Cohn trace does not vanish on the defining ideal and the value would
        depend on the chosen representative.
        """
        if not self.spec.divides(self.n - 1):
            raise ValueError(
                f"trace undefined: characteristic {self.spec.characteristic} "
                f"does not divide n-1 = {self.n - 1}"
            )
        return self.rep.trace()

    def __eq__(self, other) -> bool:
        return isinstance(other, LeavittElement) and self.rep == other.rep

    def __hash__(self):
        return hash(self.rep)

    def __str__(self) -> str:
        return str(self.rep)

    def __repr__(self) -> str:
        return f"<LeavittElement n={self.n} over {self.spec}: {self}>"


def independence_check(words: Sequence[Word]) -> bool:
    """Whether the images of the x-monomials of the given words are independent.

    Each x_I is already junction-free, so its coset keeps the single basis
    monomial x_I; independence therefore reduces to the normal-form monomials
    being pairwise distinct, which holds for any list of distinct words.
    Duplicated input words are rejected.
    """
    seen = set()
    for w in words:
        if w.n != words[0].n:
            raise ValueError("words must share one alphabet")
        if w in seen:
            raise ValueError(f"duplicate word {w!r}")
        seen.add(w)
    if not words:
        return True
    spec = FieldSpec(0)  # independence over the prime field of Q suffices here
    monomials = set()
    for w in words:
        terms = normal_form(x_word(w, spec)).rep._terms
        if len(terms) != 1:
            return False
        monomials.update(terms)
    return len(monomials) == len(words)


def _linearly_independent(rows: List[Dict], p: int) -> bool:
    """Reduced row elimination over the sparse monomial support of raw term maps."""
    pivots: Dict = {}
    for row in rows:
        work = dict(row)
        for piv, prow in pivots.items():
            c = work.get(piv)
            if c is None:
                continue
            for m, v in prow.items():
                acc = work.get(m, 0) - c * v
                if p:
                    acc %= p
                if acc:
                    work[m] = acc
                else:
                    work.pop(m, None)
        if not work:
            return False
        piv = max(work, key=_order)
        inv = pow(work[piv], -1, p) if p else 1 / work[piv]
        pivots[piv] = {m: v * inv % p if p else v * inv for m, v in work.items()}
    return True


def dim_probe(J: int, n: int, spec: FieldSpec) -> bool:
    """Whether the brackets of the first generator with powers of the second,
    up to exponent J, are linearly independent.

    These brackets span an infinite independent family, so the probe holds
    for every J; it is still computed honestly by row elimination.
    """
    if J < 1:
        raise ValueError(f"probe depth must be at least 1, got {J}")
    x1 = LeavittElement.x_gen(1, n, spec)
    x2 = LeavittElement.x_gen(2, n, spec)
    rows = []
    power = x2
    for _ in range(J):
        rows.append(x1.bracket(power).rep._terms)
        power = power * x2
    return _linearly_independent(rows, spec.characteristic)

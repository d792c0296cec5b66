"""The Leavitt algebra of order n as a quotient of the Cohn algebra.

Coset representatives are Cohn elements in which no monomial contains the
junction x_n y_n (an x-word ending in the top letter directly followed by a
y-word starting with it).  Using 1 = sum_i x_i y_i, a junction monomial
x_{Ln} y_{nR} rewrites to x_L y_R - sum_{i<n} x_{Li} y_{iR}, which differs
from it by x_L (1 - sum_i x_i y_i) y_R, an element of the defining ideal.
Each monomial has at most one junction, so this rewriting system has no
ambiguities and Bergman's Diamond Lemma (Adv. Math. 29, 1978) makes its
normal form unique; the junction-free monomials are the standard basis of
the Leavitt algebra L(1, n).

The normal form of one monomial can therefore be written down directly.
Write it as x_{A n^r} y_{n^s B}, with A not ending in n and B not starting
with n, and let m = min(r, s).  Rewriting the junction m times gives

    x_{A n^(r-m)} y_{n^(s-m) B}
        - sum_{t=1..m} sum_{i<n} x_{A n^(r-t) i} y_{i n^(s-t) B},

every term of which is junction-free.  Reducing an element is one pass
over its terms, linear in the letters of the output.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from .coeffs import FieldSpec, Scalar
from .cohn import CohnElement, _absorb, _mono_text, _order, x_gen, x_word, y_gen
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


def _reduce(element: CohnElement, trace: Optional[List[RewriteStep]]) -> CohnElement:
    spec, n = element.spec, element.n
    p = spec.characteristic
    # junction-free terms are copied through; rewriting never yields a junction
    out = dict(element._terms)
    junctions = [(m, out.pop(m)) for m in element._terms if _has_junction(*m, n)]
    for (left, right), c in junctions:
        neg = p - c if p else -c
        while _has_junction(left, right, n):
            left, right = left[:-1], right[1:]
            if trace is not None:
                trace.append(RewriteStep(Scalar(spec, neg), Word(left, n), Word(right, n)))
            for i in range(1, n):
                _absorb(out, (left + (i,), (i,) + right), neg, p)
        _absorb(out, (left, right), c, p)
    return CohnElement._raw(spec, n, out)


def normal_form(c: CohnElement) -> "LeavittElement":
    """Reduce a Cohn element to its junction-free coset representative."""
    return LeavittElement._wrap(_reduce(c, None))


def normal_form_with_trace(c: CohnElement) -> Tuple["LeavittElement", List[RewriteStep]]:
    """Normal form plus the rewrite trace witnessing membership in the ideal."""
    trace: List[RewriteStep] = []
    return LeavittElement._wrap(_reduce(c, trace)), trace


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
        return cls._wrap(x_gen(i, n, spec))

    @classmethod
    def y_gen(cls, i: int, n: int, spec: FieldSpec) -> "LeavittElement":
        return cls._wrap(y_gen(i, n, spec))

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

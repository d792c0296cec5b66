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

The normal form of one monomial is therefore a closed form, `cohn._expand`;
reducing an element expands each junction monomial, linear in the letters
of the output.  A LeavittElement holds the junction-free term map itself
and shares the Cohn element's operations; its class sets `_expands_junctions`,
so its product is the Cohn pair loop told the top letter, which expands each
junction as it meets it.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from .coeffs import FieldSpec, Scalar, _check_int
from .cohn import CohnElement, Word, _absorb, _Element, _expand, _junctions, _letters, _mono_text
from .cohn import _reduced, _scalar, x_word

__all__ = [
    "LeavittElement",
    "RewriteStep",
    "normal_form",
    "normal_form_with_trace",
    "independence_check",
    "dim_probe",
]


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
    terms: Dict, den: int, spec: FieldSpec, n: int, trace: Optional[List[RewriteStep]]
) -> Tuple[Dict, int]:
    """Bring a raw term map over den, which it takes over, to its normal form; return it with its denominator."""
    p = spec.characteristic
    # expansions are junction-free, so each junction term stays in terms until popped
    for X, Y in _junctions(terms, n):
        c = terms.pop((X, Y))
        neg = p - c if p else -c
        part = _expand(X, Y, c, neg, n)
        if trace is not None:
            xs, ys = _letters(X, n), _letters(Y, n)
            for t in range(1, len(xs) - len(_letters(next(iter(part))[0], n)) + 1):
                trace.append(RewriteStep(_scalar(spec, neg, den), Word(xs[:-t], n), Word(ys[t:], n)))
        if len(part) > len(terms):
            terms, part = part, terms
        for m, v in part.items():
            _absorb(terms, m, v, p)
    return _reduced(terms, den)


def normal_form(c: CohnElement) -> "LeavittElement":
    """Reduce a Cohn element to its junction-free coset representative."""
    return LeavittElement._raw(c.spec, c.n, *_reduce(dict(c._terms), c._den, c.spec, c.n, None))


def normal_form_with_trace(c: CohnElement) -> Tuple["LeavittElement", List[RewriteStep]]:
    """Normal form plus the rewrite trace witnessing membership in the ideal."""
    trace: List[RewriteStep] = []
    return LeavittElement._raw(c.spec, c.n, *_reduce(dict(c._terms), c._den, c.spec, c.n, trace)), trace


class LeavittElement(_Element):
    """An element of the Leavitt algebra, held as the term map of its normal form.

    The junction-free monomials are a basis of the quotient, so the linear
    operations, equality and printing are those of the term map, shared with
    the Cohn algebra.  A product is the Cohn product of the two maps with
    each junction expanded as it arises.  `rep` is a CohnElement over the same map.
    """

    __slots__ = ()
    _expands_junctions = True

    def __init__(self, rep: CohnElement):
        if not isinstance(rep, CohnElement):
            raise TypeError(f"expected CohnElement, got {type(rep).__name__}")
        junctions = _junctions(rep._terms, rep.n)
        if junctions:
            X, Y = junctions[0]
            raise ValueError(
                "representative is not in normal form: junction monomial "
                + _mono_text(X, Y, rep.n)
            )
        self.spec = rep.spec
        self.n = rep.n
        self._terms = rep._terms
        self._den = rep._den

    @property
    def rep(self) -> CohnElement:
        """The normal-form representative, as a Cohn element."""
        return CohnElement._raw(self.spec, self.n, self._terms, self._den)

    # perfbench's tracer wraps the product and the bracket in this class's own namespace
    __mul__ = _Element.__mul__
    bracket = _Element.bracket

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
        return super().trace()


def independence_check(words: Sequence[Word]) -> bool:
    """Whether the images of the x-monomials of the given words are linearly independent.

    Each x_I is junction-free, so its normal form is the single basis
    monomial x_I; the normal forms are still eliminated as rows, as in
    `dim_probe`.  Duplicated input words are rejected.
    """
    seen = set()
    for w in words:
        if not isinstance(w, Word):
            raise TypeError(f"expected Word, got {type(w).__name__}")
        if w.n != words[0].n:
            raise ValueError("words must share one alphabet")
        if w in seen:
            raise ValueError(f"duplicate word {w!r}")
        seen.add(w)
    spec = FieldSpec(0)  # independence over the prime field of Q suffices here
    return _linearly_independent([normal_form(x_word(w, spec))._terms for w in words], 0)


def _linearly_independent(rows: List[Dict], p: int) -> bool:
    """Row echelon elimination over the sparse monomial support of raw term maps.

    Each stored row is scaled to 1 at its leading monomial, the greatest
    key (X, Y), which leads no other stored row.  Any total order of the
    keys serves.  A row is reduced only at its own leading monomial, so a
    row that meets no stored leader costs one step however many rows are
    stored.  The rows are integer numerators whose denominators are left
    out, as scaling a row keeps the rows' independence.
    """
    pivots: Dict = {}
    for row in rows:
        work = dict(row)
        while work:
            piv = max(work)
            prow = pivots.get(piv)
            if prow is None:
                break
            c = work[piv]
            # prow's other monomials all lie below piv, so the leader falls
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
        inv = pow(work[piv], -1, p) if p else Fraction(1, work[piv])
        pivots[piv] = {m: v * inv % p if p else v * inv for m, v in work.items()}
    return True


def dim_probe(J: int, n: int, spec: FieldSpec) -> bool:
    """Whether the brackets of the first generator with powers of the second,
    up to exponent J, are linearly independent.

    These brackets span an infinite independent family, so the probe holds
    for every J; it is still computed honestly by row elimination.
    """
    _check_int(J, "J")
    if J < 1:
        raise ValueError(f"probe depth must be at least 1, got {J}")
    x1 = LeavittElement.x_gen(1, n, spec)
    x2 = LeavittElement.x_gen(2, n, spec)
    rows = []
    power = x2
    for _ in range(J):
        rows.append(x1.bracket(power)._terms)
        power = power * x2
    return _linearly_independent(rows, spec.characteristic)

"""Shared test utilities: random generators, the brute-force product and
normal-form oracles, a reference printer, and the isomorphism
L(n) -> M_n(L(n))."""

from __future__ import annotations

import random
from fractions import Fraction
from typing import List, Optional

from leavitt import (
    CohnElement,
    FieldSpec,
    LeavittElement,
    MatrixElement,
    Monomial,
    RewriteStep,
    Scalar,
    Word,
)


def random_word(n: int, max_len: int, rng: random.Random) -> Word:
    """A uniformly random length in [0, max_len], then uniform letters."""
    length = rng.randint(0, max_len)
    return Word((rng.randint(1, n) for _ in range(length)), n)


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


def random_scalar(spec: FieldSpec, rng: random.Random, nonzero: bool = False) -> Scalar:
    p = spec.characteristic
    if p == 0:
        num = rng.randint(-6, 6)
        if nonzero and num == 0:
            num = 1
        return Scalar(spec, Fraction(num, rng.randint(1, 4)))
    lo = 1 if nonzero else 0
    return Scalar(spec, rng.randint(lo, p - 1)) if p > lo else Scalar(spec, lo)


def random_monomial(n: int, max_len: int, rng: random.Random) -> Monomial:
    return Monomial(random_word(n, max_len, rng), random_word(n, max_len, rng))


def random_cohn(
    n: int,
    spec: FieldSpec,
    rng: random.Random,
    max_len: int = 3,
    max_terms: int = 3,
) -> CohnElement:
    out = CohnElement.zero(n, spec)
    for _ in range(rng.randint(0, max_terms)):
        mono = random_monomial(n, max_len, rng)
        out = out + CohnElement.from_monomial(mono, spec, random_scalar(spec, rng, nonzero=True))
    return out


def oracle_mul(a: Monomial, b: Monomial) -> Optional[Monomial]:
    """Multiply two basis monomials by exhaustive string rewriting.

    Concatenates the generator strings and repeatedly rewrites adjacent
    pairs y_i x_j: delete them when i = j, return None (the zero product)
    when i != j.  Independent of the prefix-order case analysis used by
    the production multiplication.
    """
    word = (
        [("x", i) for i in a.xs]
        + [("y", i) for i in a.ys]
        + [("x", i) for i in b.xs]
        + [("y", i) for i in b.ys]
    )
    changed = True
    while changed:
        changed = False
        for k in range(len(word) - 1):
            (s1, i1), (s2, i2) = word[k], word[k + 1]
            if s1 == "y" and s2 == "x":
                if i1 != i2:
                    return None
                del word[k : k + 2]
                changed = True
                break
    xs = [i for s, i in word if s == "x"]
    ys = [i for s, i in word if s == "y"]
    # a fully rewritten string has all x's before all y's
    assert word == [("x", i) for i in xs] + [("y", i) for i in ys]
    n = a.xs.n
    return Monomial(Word(xs, n), Word(ys, n))


def reference_str(a) -> str:
    """The canonical text of a Cohn or Leavitt element, by the plain loop.

    Every term's coefficient and words are formatted afresh, in the order
    degree, then length-lex x-word, then length-lex y-word; a coefficient 1
    is left out before a monomial, and over Q a negative one becomes " - ".
    Independent of the memoized printer of the package.
    """
    terms = a._terms
    if not terms:
        return "0"
    rational = a.spec.characteristic == 0
    chunks = []
    for xs, ys in sorted(terms, key=lambda m: (len(m[0]) - len(m[1]), len(m[0]), m[0], len(m[1]), m[1])):
        c = terms[(xs, ys)]
        negative = rational and c < 0
        mag = -c if negative else c
        blocks = [f"{tag}[{','.join(str(i) for i in w)}]" for tag, w in (("x", xs), ("y", ys)) if w]
        if not blocks:
            body = str(mag)
        elif mag == 1:
            body = "*".join(blocks)
        else:
            body = f"{mag}*{'*'.join(blocks)}"
        if not chunks:
            chunks.append(f"-{body}" if negative else body)
        else:
            chunks.append(f" - {body}" if negative else f" + {body}")
    return "".join(chunks)


def phi(a: LeavittElement) -> MatrixElement:
    """The ring isomorphism L(n) -> M_n(L(n)), a -> (y_i a x_j)_{i,j}.

    It is multiplicative because sum_k x_k y_k = 1, and unital because
    y_i x_j is 1 when i = j and 0 otherwise; `phi_inverse` undoes it.
    """
    n, spec = a.n, a.spec
    xs = [LeavittElement.x_gen(j, n, spec) for j in range(1, n + 1)]
    ys = [LeavittElement.y_gen(i, n, spec) for i in range(1, n + 1)]
    return MatrixElement([[y * a * x for x in xs] for y in ys])


def phi_inverse(m: MatrixElement) -> LeavittElement:
    """sum_{i,j} x_i m_ij y_j, the inverse of `phi` on n x n matrices."""
    n, spec = m.n, m.spec
    total = LeavittElement.zero(n, spec)
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            x, y = LeavittElement.x_gen(i, n, spec), LeavittElement.y_gen(j, n, spec)
            total = total + x * m.entry(i - 1, j - 1) * y
    return total


def worklist_normal_form(
    c: CohnElement,
    rng: Optional[random.Random] = None,
    trace: Optional[List[RewriteStep]] = None,
) -> LeavittElement:
    """Normal form by rewriting one junction at a time from a work queue.

    Pops a junction monomial x_{Ln} y_{nR} (at random when an rng is
    given), replaces it by x_L y_R - sum_{i<n} x_{Li} y_{iR}, and queues any
    junction monomial this creates, until none is left.  Independent of the
    closed form used by `normal_form`; the rewriting system is confluent,
    so every order must reach the same result.  Each rewrite is appended
    to trace, when given, as the ideal multiple it subtracts.
    """
    spec, n = c.spec, c.n
    p = spec.characteristic
    terms = dict(c._terms)

    def has_junction(m) -> bool:
        xs, ys = m
        return bool(xs) and bool(ys) and xs[-1] == n and ys[0] == n

    pending = [m for m in terms if has_junction(m)]
    queued = set(pending)

    def absorb(m, v) -> None:
        acc = terms.get(m)
        if acc is not None:
            v = (acc + v) % p if p else acc + v
            if not v:
                del terms[m]
                return
        terms[m] = v
        if has_junction(m) and m not in queued:
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
    # the checked constructor rejects any junction the queue missed
    return LeavittElement(CohnElement._raw(spec, n, terms))

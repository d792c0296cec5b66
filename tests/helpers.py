"""Shared test utilities: random generators, the brute-force product and
normal-form oracles, a reference printer, the isomorphisms L(n) -> M_n(L(n))
and M_d(L(n)) -> M_{d+n-1}(L(n)), the translation between raw term maps
and letter tuples, and reference readers of element text and of matrix
arrays."""

from __future__ import annotations

import random
import re
from fractions import Fraction
from itertools import chain, repeat
from typing import Dict, List, Optional

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
from leavitt.cohn import (
    _absorb,
    _accumulate,
    _check_alphabet,
    _checked_letters,
    _code,
    _field_bits,
    _raw_one,
    parse_element,
)
from leavitt.leavitt import normal_form
from leavitt.matrix import _NOT_ROWS, _square_size


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


def letter_terms(raw: dict, n: int) -> dict:
    """A raw term map keyed by letter tuples, {(xs, ys): value}.

    Each key of raw is decoded by the public `terms` view, so tests read
    raw maps without knowing how the package stores a word.
    """
    view = CohnElement._raw(FieldSpec(0), n, raw).terms
    return {(m.xs.letters, m.ys.letters): v for m, v in zip(view, raw.values())}


def coded_terms(terms: dict, n: int) -> dict:
    """The raw term map of {(xs, ys): value}, each word encoded by the public constructor.

    The values are kept as they are, the same objects.
    """
    one = Scalar(FieldSpec(0), 1)
    ones = CohnElement(FieldSpec(0), n, {Monomial(Word(xs, n), Word(ys, n)): one for xs, ys in terms})
    return dict(zip(ones._terms, terms.values()))


def reference_str(a) -> str:
    """The canonical text of a Cohn or Leavitt element, by the plain loop.

    Every term's coefficient and words are formatted afresh, in the order
    degree, then length-lex x-word, then length-lex y-word; a coefficient 1
    is left out before a monomial, and over Q a negative one becomes " - ".
    Independent of the memoized printer of the package.
    """
    terms = letter_terms(a._terms, a.n)
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


def entry_map_mul(a: dict, b: dict, zero) -> dict:
    """The product of two matrices of any compatible shapes, held as maps
    {(i, j): entry} of their nonzero entries, by the schoolbook sum; zero is
    the entry algebra's zero, and a position whose sum cancels is left out."""
    by_row: dict = {}
    for (k, j), e in b.items():
        by_row.setdefault(k, []).append((j, e))
    out: dict = {}
    for (i, k), e in a.items():
        for j, f in by_row.get(k, ()):
            out[(i, j)] = out.get((i, j), zero) + e * f
    return {pos: e for pos, e in out.items() if not e.is_zero()}


def transport_factors(n: int, spec, d: int):
    """The entry maps of P = I_{d-1} + (y_1, ..., y_n)^T, (d+n-1) x d, and
    Q = I_{d-1} + (x_1, ..., x_n), d x (d+n-1), over L(n).

    Q P = I_d because sum_i x_i y_i = 1, and P Q = I_{d+n-1} because y_i x_j
    is 1 when i = j and 0 otherwise."""
    one = LeavittElement.one(n, spec)
    p = {(i, i): one for i in range(d - 1)}
    q = dict(p)
    for i in range(1, n + 1):
        p[(d + i - 2, d - 1)] = LeavittElement.y_gen(i, n, spec)
        q[(d - 1, d + i - 2)] = LeavittElement.x_gen(i, n, spec)
    return p, q


def transport(a: MatrixElement) -> MatrixElement:
    """The ring isomorphism M_d(L(n)) -> M_{d+n-1}(L(n)), A -> P A Q, with P
    and Q as in `transport_factors`; it is multiplicative because Q P = I_d."""
    n, spec, d = a.n, a.spec, a.d
    zero = LeavittElement.zero(n, spec)
    p, q = transport_factors(n, spec, d)
    entries = entry_map_mul(entry_map_mul(p, a.entries, zero), q, zero)
    return MatrixElement._from_map(zero, d + n - 1, entries)


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
    terms = letter_terms(c._terms, n)

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
    return LeavittElement(CohnElement._raw(spec, n, coded_terms(terms, n)))


# --- stabilization oracle ------------------------------------------------------
#
# In L(n), 1 = sum_i x_i y_i gives x_I y_J = sum_i x_{Ii} y_{iJ}, and so
# x_I y_J = sum_w x_{Iw} y_{rev(w) J} over the words w of any length t.  The
# monomials of one degree whose y-words have one length k are matrix units
# (x_I y_J -> e_{I, rev J}), and expanding to a fixed k is injective.  So two
# elements are equal in L(n) exactly when their expansions to a common k agree
# as maps, and once the y-words of a and the x-words of b have one length k,
# x_I y_J * x_K y_L is x_I y_L when K = rev(J) and 0 otherwise.  No junction
# is ever rewritten.  The maps here are {(xs, ys): raw value} on letter tuples.


def _add_into(out: dict, m, v, p: int) -> None:
    v = (out.get(m, 0) + v) % p if p else out.get(m, 0) + v
    if v:
        out[m] = v
    else:
        out.pop(m, None)


def add_terms(a: dict, b: dict, p: int, scale: int = 1) -> dict:
    """a + scale * b for letter-tuple maps over F_p (Q when p is 0)."""
    out = dict(a)
    for m, v in b.items():
        _add_into(out, m, scale * v, p)
    return out


def _words(n: int, t: int):
    words = [()]
    for _ in range(t):
        words = [w + (i,) for w in words for i in range(1, n + 1)]
    return words


def stab_expand(terms: dict, n: int, p: int, k: int, side: int = 1) -> dict:
    """Every monomial rewritten by x_I y_J = sum_w x_{Iw} y_{rev(w) J} until
    its y-word (side 1) or its x-word (side 0) has length k."""
    out: dict = {}
    for (xs, ys), c in terms.items():
        for w in _words(n, k - len((xs, ys)[side])):
            _add_into(out, (xs + w, w[::-1] + ys), c, p)
    return out


def stab_equal(a: dict, b: dict, n: int, p: int) -> bool:
    """Whether two letter-tuple maps are equal as elements of L(n)."""
    k = max([len(ys) for _, ys in list(a) + list(b)], default=0)
    return stab_expand(a, n, p, k) == stab_expand(b, n, p, k)


def stab_mul(a: dict, b: dict, n: int, p: int) -> dict:
    """A letter-tuple map of the product ab in L(n), made with no junction rewriting."""
    k = max([len(ys) for _, ys in a] + [len(xs) for xs, _ in b], default=0)
    by_x: dict = {}
    for (ks, ls), d in stab_expand(b, n, p, k, side=0).items():
        by_x.setdefault(ks, []).append((ls, d))
    out: dict = {}
    for (xs, ys), c in stab_expand(a, n, p, k).items():
        for ls, d in by_x.get(ys[::-1], ()):
            _add_into(out, (xs, ls), c * d, p)
    return out


# The reader of element text as the package had it before it read `findall`
# matches in one loop: a token list, one `match` per token, then the term
# loop.  The bodies are unchanged; only parse_element is renamed.

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


def reference_parse_element(text: str, n: int, spec: FieldSpec) -> CohnElement:
    """Read an element back from its canonical textual form."""
    tokens = _tokenize_element(text)
    if not tokens:
        raise ValueError("empty element text")
    _check_alphabet(n)
    b = _field_bits(n)
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
        mono, coeff = (0, 0), sign
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
                code = _code(_checked_letters(val, n), b)
                if mono is not None:
                    # a y-block, or an x-block after no y-word, concatenates: a shift and an
                    # or, without the pair loop's per-call set-up; y_Y x_code telescopes there
                    X, Y = mono
                    if kind == "y":
                        mono = (X, Y << len(val) * b | code)
                    elif not Y:
                        mono = (X << len(val) * b | code, 0)
                    else:
                        product: Dict = {}
                        _accumulate(product, {mono: 1}, {(code, 0): 1}, 1, 0, b)
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


# The reader of a matrix array as the package had it before it checked and
# collected the cells in one pass: the types of the rows, then of the cells,
# then the shape, each over the whole array, then a scan that skips rows
# holding d "0"s.  The body is unchanged; only _from_strings is renamed.


def reference_from_strings(rows, zero: LeavittElement, parsed: Dict) -> MatrixElement:
    if not (
        isinstance(rows, (list, tuple))
        and all(map(isinstance, rows, repeat((list, tuple))))
        and all(map(isinstance, chain.from_iterable(rows), repeat(str)))
    ):
        raise ValueError(_NOT_ROWS)
    d = _square_size(rows)
    n, spec = zero.n, zero.spec
    entries = {}
    for i, row in enumerate(rows):
        if row.count("0") == d:  # a zero row, most rows of a unit matrix
            continue
        for j, text in enumerate(row):
            if text == "0":
                continue
            e = parsed.get(text)
            if e is None:
                e = parsed[text] = normal_form(parse_element(text, n, spec))
            if not e.is_zero():
                entries[(i, j)] = e
    return MatrixElement._from_map(zero, d, entries)

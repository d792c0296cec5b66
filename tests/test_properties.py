"""Property tests, generated by hypothesis with a fixed derandomized seed."""

import contextlib
import io
import json
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from leavitt import (
    CohnElement,
    FieldSpec,
    LeavittElement,
    MatrixElement,
    Monomial,
    Scalar,
    SessionConfig,
    Word,
    cli,
    evaluate,
    matrix,
    normal_form,
    normal_form_with_trace,
    parse,
    parse_element,
)

from helpers import (
    add_terms,
    coded_terms,
    letter_terms,
    random_element,
    reference_from_strings,
    reference_parse_element,
    reference_str,
    stab_equal,
    stab_expand,
    stab_mul,
    worklist_normal_form,
)


@st.composite
def chain_elements(draw):
    """Cohn elements whose monomials carry long trailing x- and leading y-runs
    of the top letter, so that their normal forms rewrite long chains.  The
    terms share their outer words and nearly share their run offsets, so
    that their rewrites collide and cancel."""
    n = draw(st.integers(2, 4))
    spec = FieldSpec(draw(st.sampled_from((0, 2, 7))))
    words = st.lists(st.lists(st.integers(1, n), max_size=2).map(tuple), min_size=1, max_size=2)
    heads, tails = draw(words), draw(words)
    if spec.characteristic:
        coeff = st.integers(1, spec.characteristic - 1)
    else:
        coeff = st.builds(Fraction, st.sampled_from((-3, -2, -1, 1, 2, 3)), st.integers(1, 4))
    terms = {}
    for _ in range(draw(st.integers(1, 3))):
        r = draw(st.integers(0, 40))
        s = max(0, r + draw(st.integers(-1, 1)))
        xs = draw(st.sampled_from(heads)) + (n,) * r
        ys = (n,) * s + draw(st.sampled_from(tails))
        terms[Monomial(Word(xs, n), Word(ys, n))] = Scalar(spec, draw(coeff))
    return CohnElement(spec, n, terms)


@settings(derandomize=True, max_examples=100, deadline=None, database=None)
@given(chain_elements())
def test_closed_form_normal_form_agrees_with_the_worklist(c):
    assert normal_form(c) == worklist_normal_form(c)


@st.composite
def fusing_pairs(draw):
    """Two junction-free Leavitt elements whose products cancel fully and
    leave long junctions: terms x_{A n^r} y_W meet terms x_{rev W} y_{n^s B},
    with W empty or not starting with n, so that rev(J) = K holds for many
    pairs, with J and K both empty among them."""
    n = draw(st.integers(2, 4))
    spec = FieldSpec(draw(st.sampled_from((0, 2, 2**61 - 1))))
    p = spec.characteristic
    if p:
        coeff = st.integers(1, p - 1)
    else:
        coeff = st.builds(Fraction, st.sampled_from((-3, -2, -1, 1, 2, 3)), st.integers(1, 4))
    short = st.lists(st.integers(1, n), max_size=2).map(tuple)
    middles = draw(st.lists(st.one_of(st.just(()), short.filter(lambda w: w[:1] != (n,))),
                            min_size=1, max_size=3))

    def element():
        terms = {}
        for _ in range(draw(st.integers(1, 4))):
            w, run = draw(st.sampled_from(middles)), (n,) * draw(st.integers(0, 12))
            if draw(st.booleans()):
                xs, ys = draw(short) + run, w
            else:
                xs, ys = w[::-1], run + draw(short)
            terms[Monomial(Word(xs, n), Word(ys, n))] = Scalar(spec, draw(coeff))
        return LeavittElement(CohnElement(spec, n, terms))

    return element(), element()


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(fusing_pairs())
def test_fused_product_agrees_with_the_worklist_normal_form(pair):
    a, b = pair
    assert a * b == worklist_normal_form(a.rep * b.rep)
    assert a.bracket(b) == worklist_normal_form(a.rep.bracket(b.rep))


@st.composite
def printable_elements(draw):
    """Raw Cohn term maps over Q, F2, F7 and F_(2^61-1), with letters of one
    to three digits (n up to 300) and a constant term among the monomials.
    Over Q the values include +-1 and negative fractions.  The terms either
    share one value object per value, as products build them, or hold equal
    values in distinct objects."""
    p = draw(st.sampled_from((0, 2, 7, 2**61 - 1)))
    n = draw(st.sampled_from((2, 3, 10, 300)))
    if p:
        value = st.one_of(st.integers(1, p - 1), st.sampled_from((1, p - 1)))
        copy = lambda v: int(str(v))  # a new object, for a large int
    else:
        value = st.builds(Fraction, st.sampled_from((-7, -3, -1, 1, 2, 5)), st.sampled_from((1, 1, 2, 9)))
        copy = lambda v: Fraction(v.numerator, v.denominator)
    pool = draw(st.lists(value, min_size=1, max_size=3))
    word = st.lists(st.integers(1, n), max_size=3).map(tuple)
    slots = draw(st.dictionaries(st.tuples(word, word), st.integers(0, len(pool) - 1), max_size=6))
    shared = draw(st.booleans())
    terms = {m: pool[k] if shared else copy(pool[k]) for m, k in slots.items()}
    return CohnElement._raw(FieldSpec(p), n, coded_terms(terms, n))


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(printable_elements())
def test_printing_agrees_with_the_reference_printer_and_parses_back(a):
    text = str(a)
    assert text == reference_str(a)
    assert parse_element(text, a.n, a.spec) == a


@st.composite
def junction_operands(draw):
    """Two junction-free Leavitt elements over Q, F2, F3 or F7 with n = 2 or 3
    whose products meet junctions: terms x_{A n^r} y_W of the left factor
    meet terms x_{rev W} y_{n^s B} of the right one, W empty or not starting
    with n, A not ending and B not starting with n; each factor may also
    hold a short junction-free term."""
    n = draw(st.sampled_from((2, 3)))
    spec = FieldSpec(draw(st.sampled_from((0, 2, 3, 7))))
    p = spec.characteristic
    if p:
        coeff = st.integers(1, p - 1)
    else:
        coeff = st.builds(Fraction, st.sampled_from((-3, -1, 1, 2)), st.integers(1, 3))
    word = st.lists(st.integers(1, n), max_size=2).map(tuple)
    not_first = word.filter(lambda w: w[:1] != (n,))
    not_last = st.lists(st.integers(1, n), max_size=1).map(tuple).filter(lambda w: w[-1:] != (n,))
    middles = draw(st.lists(not_first, min_size=1, max_size=2))

    def element(left):
        terms = {}
        for _ in range(draw(st.integers(1, 3))):
            w, run = draw(st.sampled_from(middles)), (n,) * draw(st.integers(0, 3))
            if left:
                xs, ys = draw(not_last) + run, w
            else:
                xs, ys = w[::-1], run + draw(not_last)[::-1]
            terms[(xs, ys)] = draw(coeff)
        if draw(st.booleans()):
            xs, ys = draw(word), draw(word)
            if not (xs[-1:] == ys[:1] == (n,)):
                terms[(xs, ys)] = draw(coeff)
        return LeavittElement(CohnElement(spec, n, {
            Monomial(Word(xs, n), Word(ys, n)): Scalar(spec, c) for (xs, ys), c in terms.items()}))

    return element(True), element(False)


@settings(derandomize=True, max_examples=120, deadline=None, database=None)
@given(junction_operands())
def test_leavitt_arithmetic_agrees_with_the_stabilization_oracle(pair):
    a, b = pair
    n, spec = a.n, a.spec
    p = spec.characteristic
    ta, tb = letter_terms(a._terms, n), letter_terms(b._terms, n)

    def same(e, want):
        # a normal form, which the checked constructor accepts, and the right element of L(n)
        return LeavittElement(e.rep) == e and stab_equal(letter_terms(e._terms, n), want, n, p)

    ab, ba = stab_mul(ta, tb, n, p), stab_mul(tb, ta, n, p)
    assert same(a * b, ab)
    assert same(a.bracket(b), add_terms(ab, ba, p, -1))
    assert same(a**2, stab_mul(ta, ta, n, p))
    # the Cohn product carries the junctions; its normal form is the same element of L(n)
    c = a.rep * b.rep
    tc = letter_terms(c._terms, n)
    nf, steps = normal_form_with_trace(c)
    assert nf == normal_form(c) and same(nf, tc) and stab_equal(tc, ab, n, p)
    # each step is an ideal multiple, zero in L(n), and together they are c - nf(c)
    total = {}
    for step in steps:
        v, left, right = step.coefficient.value, step.left.letters, step.right.letters
        multiple = {(left, right): v}
        for i in range(1, n + 1):
            multiple[(left + (i,), (i,) + right)] = -v % p if p else -v
        assert stab_equal(multiple, {}, n, p)
        total = add_terms(total, multiple, p)
    assert total == add_terms(tc, letter_terms(nf._terms, n), p, -1)
    # growing every monomial by t letters scales the Cohn trace by n^t
    for t in (1, 2):
        grown = {}
        for (xs, ys), v in tc.items():
            grown = add_terms(grown, stab_expand({(xs, ys): v}, n, p, len(ys) + t), p)
        e = CohnElement(spec, n, {
            Monomial(Word(xs, n), Word(ys, n)): Scalar(spec, v) for (xs, ys), v in grown.items()})
        assert e.trace() == c.trace() * spec.from_int(n**t)
    if spec.divides(n - 1):
        assert nf.trace() == c.trace()


@st.composite
def matrix_operands(draw):
    """Two d x d matrices over L(n), d in {1, 2, 3}, over Q or F3, whose
    entries are zero or +-1 times one of a few drawn elements: left entries
    x_{A n^r} y_W and right entries x_{rev W} y_{n^s B} (W empty or not
    starting with n), so that entry products meet junctions, and entries
    repeated with both signs, so that products cancel at one position."""
    n = draw(st.sampled_from((2, 3)))
    d = draw(st.integers(1, 3))
    spec = FieldSpec(draw(st.sampled_from((0, 3))))
    p = spec.characteristic
    coeff = st.integers(1, p - 1) if p else st.builds(Fraction, st.sampled_from((-2, -1, 1, 3)), st.integers(1, 3))
    short = st.lists(st.integers(1, n), max_size=1).map(tuple).filter(lambda w: w[-1:] != (n,))
    middles = draw(st.lists(short, min_size=1, max_size=2))

    def pool(left):
        elements = []
        for _ in range(draw(st.integers(1, 2))):
            w, run = draw(st.sampled_from(middles)), (n,) * draw(st.integers(0, 2))
            xs, ys = (draw(short) + run, w) if left else (w[::-1], run + draw(short)[::-1])
            c = Scalar(spec, draw(coeff))
            elements.append(LeavittElement(CohnElement(spec, n, {Monomial(Word(xs, n), Word(ys, n)): c})))
        zero = LeavittElement.zero(n, spec)
        return [zero] + elements + [-e for e in elements]

    def matrix(left):
        entries = pool(left)
        return MatrixElement([[draw(st.sampled_from(entries)) for _ in range(d)] for _ in range(d)])

    return matrix(True), matrix(False)


@settings(derandomize=True, max_examples=120, deadline=None, database=None)
@given(matrix_operands())
def test_matrix_products_agree_with_the_stabilization_oracle(pair):
    a, b = pair
    n, d, p = a.n, a.d, a.spec.characteristic

    def terms(m, i, j):
        return letter_terms(m.entry(i, j)._terms, n)

    def product(x, y, i, j, scale=1, out=None):
        # sum over k of x[i, k] y[k, j], each entry product made by the oracle
        out = {} if out is None else out
        for k in range(d):
            out = add_terms(out, stab_mul(terms(x, i, k), terms(y, k, j), n, p), p, scale)
        return out

    for got, want in ((a * b, lambda i, j: product(a, b, i, j)),
                      (b * a, lambda i, j: product(b, a, i, j)),
                      (a.bracket(b), lambda i, j: product(b, a, i, j, -1, product(a, b, i, j)))):
        assert all(not e.is_zero() and LeavittElement(e.rep) == e for e in got.entries.values())
        for i in range(d):
            for j in range(d):
                assert stab_equal(terms(got, i, j), want(i, j), n, p)


@st.composite
def power_bases(draw):
    """A Cohn element or its normal form in L(n), over Q, F2, F7 or F_(2^61-1),
    with one to three terms: n = 2 with words of at most two letters, or n = 3
    with words of at most one, so that the oracle's expansions stay small."""
    n = draw(st.sampled_from((2, 3)))
    spec = FieldSpec(draw(st.sampled_from((0, 2, 7, 2**61 - 1))))
    p = spec.characteristic
    coeff = st.integers(1, p - 1) if p else st.builds(Fraction, st.sampled_from((-3, -1, 1, 2)), st.integers(1, 3))
    word = st.lists(st.integers(1, n), max_size=4 - n).map(tuple)
    terms = draw(st.dictionaries(st.tuples(word, word), coeff, min_size=1, max_size=3))
    c = CohnElement(spec, n, {Monomial(Word(xs, n), Word(ys, n)): Scalar(spec, v) for (xs, ys), v in terms.items()})
    return normal_form(c) if draw(st.booleans()) else c


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(power_bases())
def test_powers_agree_with_the_left_to_right_product_and_the_oracle(a):
    n, p = a.n, a.spec.characteristic
    ta = letter_terms(a._terms, n)
    product, previous = a, None
    for k in range(1, 8):
        if k > 1:
            product = product * a
        power = a ** k
        assert power == product
        if 1 < k <= 5:
            # a**k = a**(k-1) * a in L(n), by the product made with no junction rewriting;
            # a Cohn power is checked through its image in L(n)
            want = stab_mul(letter_terms(previous._terms, n), ta, n, p)
            assert stab_equal(letter_terms(power._terms, n), want, n, p)
        previous = power


_SPACE = st.sampled_from(("", "", " ", "  ", "\t"))


@st.composite
def element_texts(draw):
    """Element text over Q, F2, F5 or F7 with n in {2, 3, 17}, with its n and field.

    The text is either the printed form of a random element, or a sum of
    products written out of order: blocks of either tag in any order (so y
    before x telescopes), integers, fractions a/b and 0 factors anywhere,
    whitespace inside blocks and around operators, and an optional leading
    sign.  Half of the texts then have one character deleted, inserted or
    replaced, which also puts letters outside the alphabet.
    """
    n = draw(st.sampled_from((2, 3, 17)))
    spec = FieldSpec(draw(st.sampled_from((0, 2, 5, 7))))
    if draw(st.booleans()):
        text = str(random_element(n, spec, 3, 4, draw(st.integers(0, 2**32))))
    else:
        letter = st.builds(lambda ws, i: f"{ws}{i}{ws}", _SPACE, st.integers(1, n))
        block = st.builds(lambda tag, letters: f"{tag}[{','.join(letters)}]",
                          st.sampled_from("xy"), st.lists(letter, min_size=1, max_size=3))
        number = st.integers(0, 12).map(str)
        denominator = st.integers(0, 12).map(lambda k: str((k + 1) % 13))  # 0 now and then
        fraction = st.builds(lambda a, ws, b: f"{a}{ws}/{ws}{b}", number, _SPACE, denominator)
        terms = []
        for _ in range(draw(st.integers(1, 3))):
            factors = draw(st.lists(block, min_size=1, max_size=3))
            for scalar in draw(st.lists(number | fraction, max_size=2)):
                factors.insert(draw(st.integers(0, len(factors))), scalar)
            terms.append(f"{draw(_SPACE)}*{draw(_SPACE)}".join(factors))
        text = draw(st.sampled_from(("", "-", "+", "- "))) + terms[0]
        for term in terms[1:]:
            text += f"{draw(_SPACE)}{draw(st.sampled_from('+-'))}{draw(_SPACE)}{term}"
    edit = draw(st.sampled_from(("keep", "keep", "keep", "delete", "insert", "replace")))
    if edit != "keep" and text:
        i = draw(st.integers(0, len(text) - 1))
        c = draw(st.sampled_from("xy[],0123456789+-*/ q"))
        text = {"delete": text[:i] + text[i + 1:], "insert": text[:i] + c + text[i:],
                "replace": text[:i] + c + text[i + 1:]}[edit]
    return text, n, spec


def _read(reader, text, n, spec):
    """The raw terms the reader gives, with each value's type, or the exception's type and message."""
    try:
        e = reader(text, n, spec)
    except Exception as exc:
        return type(exc), str(exc)
    return [(m, type(v), v) for m, v in e._terms.items()]


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(element_texts())
def test_element_reader_agrees_with_the_token_list_reader(case):
    got, want = _read(parse_element, *case), _read(reference_parse_element, *case)
    if want[:1] == (ValueError,) and want[1].startswith("invalid literal"):
        # a block that is not a comma-separated list of letters is named
        assert got[0] is ValueError and got[1].startswith("bad generator word in ")
    elif want == (ValueError, "missing '*' before '/' factor"):
        assert got == (ValueError, "unexpected '/' in element text")
    else:
        assert got == want


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(element_texts())
def test_the_expression_parser_reads_what_the_element_reader_accepts(case):
    text, n, spec = case
    try:
        want = parse_element(text, n, spec)
    except (ValueError, ZeroDivisionError):
        return
    assert evaluate(parse(text), SessionConfig(n=n, characteristic=spec.characteristic, mode="cohn")) == want


class _Text(str):
    pass


class _ClaimsZero:
    """Not a str, but equal to "0" by its own __eq__, so that row.count("0") counts it."""

    def __eq__(self, other):
        return other == "0"

    __hash__ = None


_CELLS = (
    ["0"] * 6
    + ["x[1]", "2*y[2] + 1", "x[1]*y[1] + x[2]*y[2]", "x[1]*", "x[3]"]
    + [_Text("0"), _Text("y[1]"), 0, None, b"0", _ClaimsZero()]
)


@st.composite
def matrix_arrays(draw):
    """Arrays as a witness document might hold them, mostly well formed: rows of
    "0"s and element texts, with now and then a cell, a row or the array of
    another type, a ragged row, or no row at all."""
    d = draw(st.integers(0, 3))
    cell = st.sampled_from(_CELLS)
    rows = []
    for _ in range(d):
        width = d + draw(st.sampled_from((0, 0, 0, 0, -1, 1)))
        if draw(st.integers(0, 2)):  # a zero row, but for one cell now and then
            row = ["0"] * width
            if width and not draw(st.integers(0, 3)):
                row[draw(st.integers(0, width - 1))] = draw(cell)
        else:
            row = [draw(cell) for _ in range(width)]
        kind = draw(st.sampled_from(("list",) * 6 + ("tuple", "str")))
        rows.append(tuple(row) if kind == "tuple" else "0" * width if kind == "str" else row)
    return tuple(rows) if draw(st.integers(0, 5)) == 0 else rows


def _read_array(reader, rows, n, spec):
    """The matrix the reader builds, or the exception's type and message."""
    try:
        return reader(rows, LeavittElement.zero(n, spec), {})
    except Exception as exc:
        return type(exc), str(exc)


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(matrix_arrays(), st.sampled_from((2, 3)), st.sampled_from((0, 5)))
def test_matrix_reader_agrees_with_the_three_pass_reader(rows, n, p):
    spec = FieldSpec(p)
    got, want = _read_array(matrix._from_strings, rows, n, spec), _read_array(reference_from_strings, rows, n, spec)
    assert type(got) is type(want) and got == want


def _nf(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["nf", *argv])
    return code, json.loads(out.getvalue())


@settings(derandomize=True, max_examples=90, deadline=None, database=None)
@given(st.sampled_from((2, 3, 17)), st.sampled_from((0, 2, 5, 7)), st.sampled_from(("cohn", "leavitt", "matrix")),
       st.integers(0, 2**32))
def test_nf_reads_back_what_it_prints(n, p, mode, seed):
    # a few terms, far below the 200 a sum may have before it nests too deeply
    text = str(random_element(n, FieldSpec(p), 3, 6, seed))
    flags = ["--n", str(n), "--char", str(p), "--mode", mode, "--d", "2" if mode == "matrix" else "1", "--"]
    code, printed = _nf(*flags, text)
    assert code == 0
    result = printed["result"]
    assert _nf(*flags, result[0][0] if mode == "matrix" else result) == (0, printed)

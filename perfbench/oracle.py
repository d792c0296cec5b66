"""Independent reference computations on plain data.

Nothing here imports the package under test.  An element is a dict
{(xs, ys): c} mapping a monomial x_xs y_ys (two tuples of letters) to a
nonzero coefficient c: a `Fraction` over Q (characteristic 0), an int in
[1, p) over F_p.  The three checks the benchmark relies on are

* `mul`: the Cohn product, by rewriting the generator string under
  y_i x_j -> delta_ij (no prefix-order case analysis);
* `nf`: the Leavitt normal form by the closed-form junction rewrite
  NF(c x_{A n^r} y_{n^s B}) = c x_{A n^(r-m)} y_{n^(s-m) B}
      - c sum_{t=1..m} sum_{i<n} x_{A n^(r-t) i} y_{i n^(s-t) B},  m = min(r, s);
* `verdict`: simple iff char | n-1 and char does not divide d.

It also prints and reads the package's canonical element text, so that
outputs can be compared as exact strings.
"""

from __future__ import annotations

import re
from fractions import Fraction


def divides(p, m):
    """Whether m * 1 = 0 in characteristic p."""
    return m == 0 if p == 0 else m % p == 0


def scalar(p, v):
    """Canonical coefficient: a Fraction over Q, a residue in [0, p) over F_p."""
    if p == 0:
        return Fraction(v)
    if isinstance(v, Fraction):
        return v.numerator * pow(v.denominator, -1, p) % p
    return v % p


def _acc(out, p, key, c):
    v = out.get(key, 0) + c
    if p:
        v %= p
    if v:
        out[key] = v
    else:
        out.pop(key, None)


def add(p, a, b, sign=1):
    out = dict(a)
    for k, c in b.items():
        _acc(out, p, k, sign * c)
    return out


def mono_mul(xs, ys, ks, ls):
    """x_xs y_ys * x_ks y_ls as a monomial, or None for zero.

    The letters are pushed left to right as a string of signed symbols
    (+i for x_i, -i for y_i); each adjacent pair y_i x_j is rewritten to
    the empty word when i = j and to zero otherwise.
    """
    w = list(xs)
    w.extend(-j for j in ys)
    for k in ks:
        if w and w[-1] < 0:
            if w[-1] != -k:
                return None
            w.pop()
        else:
            w.append(k)
    out_x = tuple(t for t in w if t > 0)
    out_y = tuple(-t for t in w if t < 0) + tuple(ls)
    return out_x, out_y


def mul(p, a, b):
    out = {}
    for (xs, ys), ca in a.items():
        for (ks, ls), cb in b.items():
            m = mono_mul(xs, ys, ks, ls)
            if m is not None:
                _acc(out, p, m, ca * cb)
    return out


def bracket(p, a, b):
    return add(p, mul(p, a, b), mul(p, b, a), -1)


def power(p, a, k, n=None):
    """a^k; with n given, reduced to normal form after every product."""
    out = a
    for _ in range(k - 1):
        out = mul(p, out, a)
        if n is not None:
            out = nf(p, n, out)
    return out


def nf(p, n, a):
    """Leavitt normal form by the closed-form junction rewrite."""
    out = {}
    for (xs, ys), c in a.items():
        r = 0
        while r < len(xs) and xs[-1 - r] == n:
            r += 1
        s = 0
        while s < len(ys) and ys[s] == n:
            s += 1
        m = min(r, s)
        if m == 0:
            _acc(out, p, (xs, ys), c)
            continue
        head, tail = xs[: len(xs) - r], ys[s:]
        _acc(out, p, (head + (n,) * (r - m), (n,) * (s - m) + tail), c)
        for t in range(1, m + 1):
            left, right = head + (n,) * (r - t), (n,) * (s - t) + tail
            for i in range(1, n):
                _acc(out, p, (left + (i,), (i,) + right), -c)
    return out


def has_junction(n, xs, ys):
    return bool(xs) and bool(ys) and xs[-1] == n and ys[0] == n


def trace(p, a):
    """Cohn trace: the sum of the coefficients of x_I y_J with I = rev(J)."""
    total = scalar(p, 0)
    for (xs, ys), c in a.items():
        if xs == ys[::-1]:
            total = scalar(p, total + c)
    return total


def verdict(p, n, d):
    """(simple, reason) by the rule: simple iff char | n-1 and char does not divide d."""
    dn1, dd = divides(p, n - 1), divides(p, d)
    if dn1 and not dd:
        return True, "CharDividesN1AndNotD"
    if not dn1:
        return False, "CharNotDividesN1"
    return False, "CharDividesD"


# --- canonical text ----------------------------------------------------------


def _word(letters):
    return "[" + ",".join(str(i) for i in letters) + "]"


def _sort_key(item):
    xs, ys = item[0]
    return (len(xs) - len(ys), (len(xs), xs), (len(ys), ys))


def format_scalar(p, v):
    """A scalar as the package prints a standalone one ("1/2", "3 mod 5")."""
    return str(v) if p == 0 else f"{v % p} mod {p}"


def format_element(p, a):
    """The canonical element text: terms sorted by degree, then length-lex."""
    if not a:
        return "0"
    chunks = []
    for (xs, ys), c in sorted(a.items(), key=_sort_key):
        negative = p == 0 and c < 0
        mag = -c if negative else c
        parts = []
        if xs:
            parts.append("x" + _word(xs))
        if ys:
            parts.append("y" + _word(ys))
        if not parts:
            body = str(mag)
        elif mag == 1:
            body = "*".join(parts)
        else:
            body = f"{mag}*" + "*".join(parts)
        if not chunks:
            chunks.append(f"-{body}" if negative else body)
        else:
            chunks.append(f" - {body}" if negative else f" + {body}")
    return "".join(chunks)


_TERM = re.compile(
    r"(?P<sign>^-|\s[+-]\s|^)"
    r"(?:(?P<coeff>\d+(?:/\d+)?)(?:\*|(?=\s|$)))?"
    r"(?:x\[(?P<xs>[\d,]+)\])?\*?"
    r"(?:y\[(?P<ys>[\d,]+)\])?"
)


def parse_element(p, text):
    """Read canonical element text back into a plain element."""
    if text == "0":
        return {}
    out, pos = {}, 0
    while pos < len(text):
        m = _TERM.match(text, pos)
        if m is None or m.end() == pos:
            raise ValueError(f"unreadable element text at {pos}: {text[pos:pos + 40]!r}")
        xs = tuple(int(t) for t in m.group("xs").split(",")) if m.group("xs") else ()
        ys = tuple(int(t) for t in m.group("ys").split(",")) if m.group("ys") else ()
        c = scalar(p, Fraction(m.group("coeff")) if m.group("coeff") else 1)
        if "-" in m.group("sign"):
            c = scalar(p, -c)
        _acc(out, p, (xs, ys), c)
        pos = m.end()
    return out


# --- matrices and witnesses --------------------------------------------------


def mat_mul(p, n, a, b):
    """Product of sparse matrices {(i, j): element} over the Leavitt algebra."""
    out = {}
    for (i, k), x in a.items():
        for (k2, j), y in b.items():
            if k == k2:
                out[i, j] = add(p, out.get((i, j), {}), mul(p, x, y))
    return {ij: e for ij, e in ((ij, nf(p, n, e)) for ij, e in out.items()) if e}


def read_matrix(p, rows):
    return {
        (i, j): parse_element(p, text)
        for i, row in enumerate(rows)
        for j, text in enumerate(row)
        if text != "0"
    }


def check_witness_doc(doc, p, n, d):
    """Whether a witness document is well formed and its bracket sum is the identity."""
    if (doc.get("characteristic"), doc.get("n"), doc.get("d")) != (p, n, d):
        return False
    total = {}
    for left_rows, right_rows in doc["pairs"]:
        if len(left_rows) != d or len(right_rows) != d:
            return False
        a, b = read_matrix(p, left_rows), read_matrix(p, right_rows)
        for ij, e in mat_mul(p, n, a, b).items():
            total[ij] = add(p, total.get(ij, {}), e)
        for ij, e in mat_mul(p, n, b, a).items():
            total[ij] = add(p, total.get(ij, {}), e, -1)
    one = {((), ()): scalar(p, 1)}
    return {ij: e for ij, e in total.items() if e} == {(i, i): one for i in range(d)}

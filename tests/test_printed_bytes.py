"""Pins the printed bytes of elements: one seeded dump of `str` and `repr`.

The dump covers products, brackets, powers, normal forms with their rewrite
steps, `degree_split`, iteration over `terms` and the trace, over Q, F2, F7
and F_(2^61-1) with n in {2, 3, 10, 16, 300}: one- to three-digit letters,
and n = 16, the first alphabet whose letters take two hex digits.  Only the
public API is used, so the dump can be made by any version of the package;
`golden/printed_bytes.sha256` holds its digest.
"""

from __future__ import annotations

import hashlib
import os
import random

from helpers import random_cohn

from leavitt import (
    CohnElement,
    FieldSpec,
    LeavittElement,
    Monomial,
    Scalar,
    Word,
    normal_form,
    normal_form_with_trace,
)

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "printed_bytes.sha256")
SPECS = (FieldSpec(0), FieldSpec(2), FieldSpec(7), FieldSpec(2**61 - 1))
ALPHABETS = (2, 3, 10, 16, 300)


def _junctions(n, spec, rng):
    """x_{A n^r} y_{n^s B} (plus a short term), which normal forms expand r or s deep."""
    terms, deep = {}, 4 if n <= 16 else 1
    for _ in range(2):
        head = tuple(rng.randint(1, n) for _ in range(rng.randint(0, 2)))
        tail = tuple(rng.randint(1, n) for _ in range(rng.randint(0, 2)))
        xs, ys = head + (n,) * rng.randint(1, deep), (n,) * rng.randint(1, deep) + tail
        terms[Monomial(Word(xs, n), Word(ys, n))] = spec.from_int(rng.randint(1, 9))
    terms[Monomial(Word((1,), n), Word((n,), n))] = -spec.one()
    return CohnElement(spec, n, terms)


def _lines(label, a):
    yield f"{label} str {a}"
    yield f"{label} repr {a!r}"
    rep = a.rep if isinstance(a, LeavittElement) else a
    yield f"{label} terms " + " ; ".join(f"{m!r} -> {c!r}" for m, c in rep.terms.items())


def dump() -> str:
    out = []
    for spec in SPECS:
        for n in ALPHABETS:
            rng = random.Random(f"{spec.characteristic}/{n}")
            for case in range(2):
                tag = f"p={spec.characteristic} n={n} #{case}"
                a = random_cohn(n, spec, rng, max_len=3, max_terms=4)
                b = random_cohn(n, spec, rng, max_len=3, max_terms=4)
                j = _junctions(n, spec, rng)
                for label, e in (("a", a), ("b", b), ("ab", a * b), ("ba", b * a),
                                 ("[a,b]", a.bracket(b)), ("a^2", a**2), ("2a-b", 2 * a - b),
                                 ("j", j), ("ja", j * a)):
                    out.extend(_lines(f"{tag} {label}", e))
                    out.append(f"{tag} {label} trace {e.trace()!r}")
                    out.append(f"{tag} {label} split " + " ; ".join(
                        f"{d}: {part}" for d, part in e.degree_split().items()))
                for label, e in (("ab", a * b), ("j", j), ("ja", j * a)):
                    nf, steps = normal_form_with_trace(e)
                    out.extend(_lines(f"{tag} nf({label})", nf))
                    out.append(f"{tag} nf({label}) steps {steps!r}")
                la, lb, lj = normal_form(a), normal_form(b), normal_form(j)
                for label, e in (("la*lb", la * lb), ("[la,lb]", la.bracket(lb)),
                                 ("lj*la", lj * la), ("[lj,lb]", lj.bracket(lb)),
                                 ("lj^2", lj**2), ("la^3", la**3)):
                    out.extend(_lines(f"{tag} {label}", e))
                    if spec.divides(n - 1):
                        out.append(f"{tag} {label} trace {e.trace()!r}")
            x, y = LeavittElement.x_gen(n, n, spec), LeavittElement.y_gen(n, n, spec)
            out.extend(_lines(f"p={spec.characteristic} n={n} x_n*y_n", x * y))
            out.append(repr(Scalar(spec, 0)) + " " + str(CohnElement.zero(n, spec)))
    return "\n".join(out) + "\n"


def test_printed_bytes_match_the_pinned_digest():
    with open(GOLDEN) as f:
        want = f.read().split()[0]
    assert hashlib.sha256(dump().encode()).hexdigest() == want


if __name__ == "__main__":
    # prints the digest that golden/printed_bytes.sha256 records
    print(hashlib.sha256(dump().encode()).hexdigest())

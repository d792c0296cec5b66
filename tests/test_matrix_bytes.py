"""Pins the printed bytes of matrix arithmetic and witnesses: one seeded dump.

The dump covers `str` of matrix products and brackets, over Q, F2 and F7
with n in {2, 3} and d in {1, 2, 3}, for Cohn and Leavitt entries (some of
them zero), and the JSON of `witness_to_doc` with the verdict of
`verify_witness`, before and after a document round trip, over the
252-configuration acceptance grid (characteristics 0, 2, 3, 5, 7, 11;
n 2..8; d 1..6).  Only the public API is used, so the dump can be made by
any version of the package; `golden/matrix_witness_bytes.sha256` holds its
digest.
"""

from __future__ import annotations

import hashlib
import json
import os
import random

from helpers import random_cohn

from leavitt import (
    FieldSpec,
    MatrixElement,
    build_witness,
    is_simple,
    normal_form,
    verify_witness,
    witness_from_doc,
    witness_to_doc,
)

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "matrix_witness_bytes.sha256")
SPECS = (FieldSpec(0), FieldSpec(2), FieldSpec(7))


def _matrix(d, n, spec, rng, leavitt):
    def entry():
        c = random_cohn(n, spec, rng, max_len=2, max_terms=3)
        return normal_form(c) if leavitt else c

    return MatrixElement([[entry() for _ in range(d)] for _ in range(d)])


def _products():
    for spec in SPECS:
        for n in (2, 3):
            for d in (1, 2, 3):
                for leavitt in (False, True):
                    rng = random.Random(f"{spec.characteristic}/{n}/{d}/{leavitt}")
                    tag = f"p={spec.characteristic} n={n} d={d} {'L' if leavitt else 'C'}"
                    for case in range(2):
                        a, b = _matrix(d, n, spec, rng, leavitt), _matrix(d, n, spec, rng, leavitt)
                        for label, m in (("a", a), ("b", b), ("ab", a * b), ("ba", b * a),
                                         ("[a,b]", a.bracket(b)), ("aa", a * a),
                                         ("[a,b]+[b,a]", a.bracket(b) + b.bracket(a))):
                            yield f"{tag} #{case} {label} {m}"


def _grid():
    for p in (0, 2, 3, 5, 7, 11):
        spec = FieldSpec(p)
        for n in range(2, 9):
            for d in range(1, 7):
                verdict = is_simple(spec, n, d)
                tag = f"p={p} n={n} d={d} {verdict.simple} {verdict.reason.value}"
                if verdict.simple:
                    yield tag
                    continue
                w = build_witness(spec, n, d)
                doc = json.dumps(witness_to_doc(w))
                yield f"{tag} {doc} {verify_witness(w)} {verify_witness(witness_from_doc(json.loads(doc)))}"


def dump() -> str:
    return "\n".join([*_products(), *_grid()]) + "\n"


def test_matrix_and_witness_bytes_match_the_pinned_digest():
    with open(GOLDEN) as f:
        want = f.read().split()[0]
    assert hashlib.sha256(dump().encode()).hexdigest() == want


if __name__ == "__main__":
    # prints the digest that golden/matrix_witness_bytes.sha256 records
    print(hashlib.sha256(dump().encode()).hexdigest())

"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
All checks are exact equalities; there are no numeric tolerances anywhere.
"""

import random

from leavitt import (
    CohnElement,
    FieldSpec,
    LeavittElement,
    MatrixElement,
    Word,
    build_witness,
    dim_probe,
    identity_matrix,
    ideal_generator,
    independence_check,
    is_simple,
    normal_form,
    unit,
    verify_witness,
)

from helpers import oracle_mul, random_cohn, random_monomial, worklist_normal_form

GRID_CHARS = (0, 2, 3, 5, 7, 11)
GRID_N = range(2, 9)
GRID_D = range(1, 7)


def _report(num, description, failures):
    status = "PASS" if not failures else "FAIL"
    print(f"ACCEPTANCE {num:02d} [{status}] {description}")
    assert not failures, f"criterion {num} ({description}): {failures[:5]}"


def _random_leavitt_matrix(d, n, spec, rng):
    return MatrixElement(
        [
            [normal_form(random_cohn(n, spec, rng, max_len=2, max_terms=2)) for _ in range(d)]
            for _ in range(d)
        ]
    )


def test_criterion_01_truth_table():
    failures = []
    for p in GRID_CHARS:
        spec = FieldSpec(p)
        for n in GRID_N:
            for d in GRID_D:
                expected = spec.divides(n - 1) and not spec.divides(d)
                if is_simple(spec, n, d).simple != expected:
                    failures.append((p, n, d))
    _report(1, "verdict truth table over 252 configurations", failures)


def test_criterion_02_witness_soundness_over_the_grid():
    failures = []
    for p in GRID_CHARS:
        spec = FieldSpec(p)
        for n in GRID_N:
            for d in GRID_D:
                if is_simple(spec, n, d).simple:
                    continue
                if not verify_witness(build_witness(spec, n, d)):
                    failures.append((p, n, d))
    _report(2, "bracket witnesses verify for every non-simple configuration", failures)


def test_criterion_03_nilpotent_case_anchor():
    failures = []
    spec = FieldSpec(2)
    one = LeavittElement.one(3, spec)
    got = unit(one, 1, 2, 2).bracket(unit(one, 2, 1, 2))
    diagonal_difference = unit(one, 1, 1, 2) - unit(one, 2, 2, 2)
    if got != diagonal_difference:
        failures.append("bracket is not the diagonal difference")
    if got != identity_matrix(one, 2):
        failures.append("diagonal difference is not the identity in characteristic 2")
    _report(3, "off-diagonal unit bracket equals the identity for p=2, n=3, d=2", failures)


def test_criterion_04_trace_symmetry():
    failures = []
    for n in (2, 3, 4):
        for p in (0, 2, 3, 5):
            spec = FieldSpec(p)
            rng = random.Random(10_000 + 10 * n + p)
            for _ in range(1000):
                a = random_cohn(n, spec, rng, max_len=4, max_terms=3)
                b = random_cohn(n, spec, rng, max_len=4, max_terms=3)
                if (a * b).trace() != (b * a).trace():
                    failures.append((n, p, str(a), str(b)))
                    break
    _report(4, "trace symmetry on 1000 random pairs per (n, p)", failures)


def _applicable_vanishing_configs():
    candidates = [(3, 2), (4, 3), (6, 5)] + [(2, p) for p in (2, 3, 5, 7)]
    return [(n, p) for n, p in candidates if FieldSpec(p).divides(n - 1)]


def test_criterion_05_trace_vanishes_on_the_ideal():
    failures = []
    configs = _applicable_vanishing_configs()
    assert configs == [(3, 2), (4, 3), (6, 5)]  # no characteristic divides 2 - 1
    for n, p in configs:
        spec = FieldSpec(p)
        g = ideal_generator(n, spec)
        rng = random.Random(20_000 + 10 * n + p)
        for _ in range(500):
            a = random_cohn(n, spec, rng, max_len=2, max_terms=2)
            b = random_cohn(n, spec, rng, max_len=2, max_terms=2)
            if not (a * g * b).trace().is_zero():
                failures.append((n, p, str(a), str(b)))
                break
    _report(5, "trace kills 500 random ideal elements per applicable (n, p)", failures)


def test_criterion_06_quotient_trace_well_defined():
    failures = []
    for n, p in _applicable_vanishing_configs():
        spec = FieldSpec(p)
        g = ideal_generator(n, spec)
        rng = random.Random(30_000 + 10 * n + p)
        for _ in range(500):
            a = random_cohn(n, spec, rng, max_len=2, max_terms=2)
            b = random_cohn(n, spec, rng, max_len=2, max_terms=2)
            c = random_cohn(n, spec, rng, max_len=2, max_terms=2)
            if c.trace() != (c + a * g * b).trace():
                failures.append((n, p))
                break
    for n, p in ((2, 2), (3, 3), (3, 0), (4, 2)):
        try:
            LeavittElement.one(n, FieldSpec(p)).trace()
            failures.append(("accepted", n, p))
        except ValueError:
            pass
    _report(6, "quotient trace is representative-independent and guards its domain", failures)


def test_criterion_07_confluence_probe():
    failures = []
    rng = random.Random(40_000)
    for trial in range(500):
        n = rng.randint(2, 3)
        spec = FieldSpec(rng.choice((0, 2, 3, 5)))
        c = random_cohn(n, spec, rng, max_len=4, max_terms=4)
        first = worklist_normal_form(c, rng=random.Random(2 * trial))
        second = worklist_normal_form(c, rng=random.Random(2 * trial + 1))
        if first != second:
            failures.append(("order", n, spec.characteristic, str(c)))
            break
        nf = normal_form(c)
        if nf != first:
            failures.append(("closed form", n, spec.characteristic, str(c)))
            break
        if normal_form(nf.rep) != nf:
            failures.append(("idempotence", n, spec.characteristic, str(c)))
            break
    _report(7, "500 pairs of randomized rewrite orders agree with the closed form", failures)


def test_criterion_08_independence_of_short_words():
    failures = []
    words = [Word((), 2)]
    frontier = [()]
    for _ in range(5):
        frontier = [seq + (i,) for seq in frontier for i in (1, 2)]
        words.extend(Word(seq, 2) for seq in frontier)
    if len(words) != 63 or not independence_check(words):
        failures.append("length-5 word family is not independent")
    for p in (0, 2, 3):
        if not dim_probe(12, 2, FieldSpec(p)):
            failures.append(("dim_probe", p))
    _report(8, "all 63 short words stay independent; 12 bracket powers independent", failures)


def test_criterion_09_nontriviality_of_nested_brackets():
    failures = []
    from leavitt import nontriviality_probe

    for p in (0, 2, 3, 5, 7):
        spec = FieldSpec(p)
        for n in (2, 3, 4, 5):
            for d in (1, 2, 3):
                if not nontriviality_probe(spec, n, d):
                    failures.append((p, n, d))
    _report(9, "nested generator bracket is nonzero over the whole grid", failures)


def test_criterion_10_bracket_sum_identity():
    failures = []
    for p in (0, 2, 3, 5, 7, 11):
        spec = FieldSpec(p)
        for n in GRID_N:
            total = LeavittElement.zero(n, spec)
            for i in range(1, n + 1):
                total = total + LeavittElement.y_gen(i, n, spec).bracket(
                    LeavittElement.x_gen(i, n, spec)
                )
            if total != LeavittElement.one(n, spec) * (n - 1):
                failures.append((p, n))
    _report(10, "generator bracket sum equals (n-1) times the identity", failures)


def test_criterion_11_trace_obstruction():
    failures = []
    for n, p in ((3, 2), (4, 3), (6, 5)):
        spec = FieldSpec(p)
        for d in (1, 2, 3):
            eye_trace = identity_matrix(LeavittElement.one(n, spec), d).trace()
            if eye_trace != spec.from_int(d):
                failures.append(("identity trace", n, p, d))
            if eye_trace.is_zero() != spec.divides(d):
                failures.append(("identity trace vanishing", n, p, d))
            rng = random.Random(50_000 + 100 * n + 10 * p + d)
            for _ in range(200):
                total = None
                for _ in range(2):
                    a = _random_leavitt_matrix(d, n, spec, rng)
                    b = _random_leavitt_matrix(d, n, spec, rng)
                    term = a.bracket(b)
                    total = term if total is None else total + term
                if not total.trace().is_zero():
                    failures.append(("bracket sum trace", n, p, d))
                    break
    _report(11, "matrix trace kills 200 random bracket sums per configuration", failures)


def test_criterion_12_oracle_equivalence():
    failures = []
    rng = random.Random(60_000)
    cases = set()
    spec = FieldSpec(0)
    for _ in range(2000):
        n = rng.randint(2, 4)
        a = random_monomial(n, 3, rng)
        b = random_monomial(n, 3, rng)
        got = CohnElement.from_monomial(a, spec) * CohnElement.from_monomial(b, spec)
        expected = oracle_mul(a, b)
        if expected is None:
            cases.add("zero")
            if not got.is_zero():
                failures.append((repr(a), repr(b)))
                break
        else:
            cases.add("xside" if len(a.ys) <= len(b.xs) else "yside")
            if got != CohnElement.from_monomial(expected, spec):
                failures.append((repr(a), repr(b)))
                break
    if cases != {"zero", "xside", "yside"}:
        failures.append(("cases not all exercised", cases))
    _report(12, "product agrees with the string-rewriting oracle on 2000 pairs", failures)

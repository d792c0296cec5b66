"""Seeded generation of each workload's inputs as plain JSON-able data.

The seed chooses the content (words, coefficients, expressions, order);
the workload definition fixes the shape (how many operations of each
kind, term counts, chain lengths, matrix sizes), so that runs with
different seeds do the same amount of work.  The package under test is
never used here: elements are built as plain dicts and handed over as
canonical text.
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction

import oracle

WORKLOADS = ("cohn_products", "leavitt_nf", "witness_grid", "cli_session")

GRID_CHARS = (0, 2, 3, 5, 7, 11)


def digest(ops):
    """Hex digest of the inputs, identical for identical inputs."""
    blob = json.dumps(ops, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def generate(workload, seed):
    rng = random.Random(f"{workload}:{seed}")
    ops = _GENERATORS[workload](rng)
    rng.shuffle(ops)
    return ops


# --- plain elements -----------------------------------------------------------


def _word(rng, n, max_len, avoid_last=None, avoid_first=None):
    w = [rng.randint(1, n) for _ in range(rng.randint(0, max_len))]
    if w and avoid_last is not None and w[-1] == avoid_last:
        w[-1] = rng.randint(1, n - 1)
    if w and avoid_first is not None and w[0] == avoid_first:
        w[0] = rng.randint(1, n - 1)
    return tuple(w)


def _coeff(rng, p):
    if p == 0:
        return Fraction(rng.choice([i for i in range(-6, 7) if i]), rng.randint(1, 4))
    return rng.randint(1, p - 1)


def element(rng, p, n, terms, max_len, junction_free=False):
    """A random element with `terms` distinct monomials.

    The word lengths (|xs|, |ys|) of the j-th term run through all pairs
    in [0, max_len]^2 in a fixed order, so elements of one size have the
    same length profile, and about the same cost, for every seed; only
    the letters and coefficients are random.
    """
    side = max_len + 1
    out, j = {}, 0
    while len(out) < terms:
        k = j % (side * side)
        lx, ly = k % side, (k // side + 3 * (k % side)) % side
        j += 1
        for _ in range(8):
            xs = tuple(rng.randint(1, n) for _ in range(lx))
            ys = tuple(rng.randint(1, n) for _ in range(ly))
            if (xs, ys) not in out and not (junction_free and oracle.has_junction(n, xs, ys)):
                out[xs, ys] = _coeff(rng, p)
                break
    return out


def _text(p, a):
    return oracle.format_element(p, a)


# --- cohn_products --------------------------------------------------------------

COHN_PAIRS = 48


def _cohn_products(rng):
    # |a| is spread evenly over 20..80 and |b| = 100 - |a|, so that the
    # costs |a|*|b| lie close together and the latency quantiles do not jump
    # between far-apart operations; n and the field cycle through
    # {2, 3} x {Q, F_7}.
    ops = []
    for i in range(COHN_PAIRS):
        size = 20 + round(60 * i / (COHN_PAIRS - 1))
        n, p = 2 + i % 2, (0, 7)[(i // 2) % 2]
        a = element(rng, p, n, size, 6)
        b = element(rng, p, n, 100 - size, 6)
        ops.append({"kind": "cohn", "p": p, "n": n, "a": _text(p, a), "b": _text(p, b)})
    return ops


# --- leavitt_nf -----------------------------------------------------------------

CHAINS = 20
PRODUCT_NFS = 6
LEAVITT_PRODUCTS = 8
LEAVITT_BRACKETS = 8
POWERS = (5, 6, 7, 8, 9)


def _chain(rng, p, r, s):
    n = 3
    head = _word(rng, n, 3, avoid_last=n)
    tail = _word(rng, n, 3, avoid_first=n)
    a = element(rng, p, n, 2, 4)
    a[(head + (n,) * r, (n,) * s + tail)] = _coeff(rng, p)
    return a


def _leavitt_nf(rng):
    ops = []
    for k in range(CHAINS):
        p = (0, 7)[k % 2]
        r, s = 20 * (k + 1), 20 * ((7 * k) % CHAINS + 1)
        ops.append({"kind": "nf", "p": p, "n": 3, "a": _text(p, _chain(rng, p, r, s))})
    for k in range(PRODUCT_NFS):
        # normal form of a*b, of about 2k terms; a*b is built during set-up
        p = (0, 7)[k % 2]
        a, b = element(rng, p, 3, 80, 6), element(rng, p, 3, 80, 6)
        ops.append({"kind": "nfprod", "p": p, "n": 3, "a": _text(p, a), "b": _text(p, b)})
    for kind, count in (("lmul", LEAVITT_PRODUCTS), ("lbracket", LEAVITT_BRACKETS)):
        for k in range(count):
            n, p = 2 + k % 2, (0, 7)[(k // 2) % 2]
            a = element(rng, p, n, 30, 4, junction_free=True)
            b = element(rng, p, n, 30, 4, junction_free=True)
            ops.append({"kind": kind, "p": p, "n": n, "a": _text(p, a), "b": _text(p, b)})
    for k in POWERS:
        # (x1 + y1 + x2 + y2)^k at n = 2: the support roughly doubles per factor
        ops.append({"kind": "lpow", "p": 0, "n": 2, "a": "y[1] + y[2] + x[1] + x[2]", "k": k})
    return ops


# --- witness_grid -----------------------------------------------------------------

SWEEP_N = 3
SWEEP_D = 16


def grid_configs():
    """The acceptance grid plus the dimension sweep at n = 3."""
    configs = [(p, n, d) for p in GRID_CHARS for n in range(2, 9) for d in range(1, 7)]
    configs += [(0, SWEEP_N, d) for d in range(1, SWEEP_D + 1)]
    configs += [(2, SWEEP_N, d) for d in range(2, SWEEP_D + 1, 2)]
    return configs


def _witness_grid(rng):
    return [{"kind": "witness", "p": p, "n": n, "d": d} for p, n, d in grid_configs()]


# --- cli_session ----------------------------------------------------------------


def _expr(rng, n, depth):
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.15:
            return ["int", rng.randint(1, 5)]
        return [rng.choice("xy"), rng.randint(1, n)]
    op = rng.choice(["+", "-", "*", "*", "^", "[]"])
    if op == "^":
        return ["^", _expr(rng, n, depth - 1), rng.randint(2, 3)]
    return [op, _expr(rng, n, depth - 1), _expr(rng, n, depth - 1)]


def expr_text(e):
    kind = e[0]
    if kind == "int":
        return str(e[1])
    if kind in ("x", "y"):
        return f"{kind}{e[1]}"
    if kind == "^":
        return f"({expr_text(e[1])})^{e[2]}"
    if kind == "[]":
        return f"[{expr_text(e[1])}, {expr_text(e[2])}]"
    return f"({expr_text(e[1])} {kind} {expr_text(e[2])})"


def _flags(n, p, mode=None, d=None):
    out = ["--n", str(n), "--char", str(p)]
    if mode is not None:
        out += ["--mode", mode]
    if d is not None:
        out += ["--d", str(d)]
    return out


def _cli(cmd, argv, n, p, mode=None, d=1, code=0, **extra):
    op = {"kind": "cli", "cmd": cmd, "argv": argv, "n": n, "p": p,
          "mode": mode or "leavitt", "d": d, "code": code}
    op.update(extra)
    return op


# Traces are defined in the quotient when char | n - 1.
_TRACE_CONFIGS = ((3, 2), (4, 3), (5, 2))
MODES = ("cohn", "leavitt", "matrix")


def _cli_session(rng):
    ops = []
    for k in range(9):
        mode, n = MODES[k % 3], rng.randint(2, 3)
        p, d = rng.choice((0, 2, 3, 5)), 2 if mode == "matrix" else 1
        e = _expr(rng, n, 3)
        ops.append(_cli("nf", ["nf", expr_text(e)] + _flags(n, p, mode, d), n, p, mode, d, exprs=[e]))
    for k in range(6):
        mode = MODES[k % 3]
        n, p = rng.choice(_TRACE_CONFIGS) if mode != "cohn" else (rng.randint(2, 3), rng.choice((0, 5)))
        d = 2 + k % 2 if mode == "matrix" else 1
        e = _expr(rng, n, 3)
        ops.append(_cli("trace", ["trace", expr_text(e)] + _flags(n, p, mode, d), n, p, mode, d, exprs=[e]))
    for k in range(6):
        mode, n = MODES[k % 3], rng.randint(2, 3)
        p, d = rng.choice((0, 3, 7)), 2 if mode == "matrix" else 1
        es = [_expr(rng, n, 2), _expr(rng, n, 2)]
        argv = ["bracket", expr_text(es[0]), expr_text(es[1])] + _flags(n, p, mode, d)
        ops.append(_cli("bracket", argv, n, p, mode, d, exprs=es))
    for _ in range(4):
        n, d, p = rng.randint(2, 8), rng.randint(1, 6), rng.choice((0, 2, 3, 5, 7))
        ops.append(_cli("simple", ["simple"] + _flags(n, p, d=d), n, p, d=d))
    small = [(p, n, d) for p in (0, 2, 3) for n in (2, 3) for d in (1, 2, 3)]
    non_simple = [c for c in small if not oracle.verdict(*c)[0]]
    for p, n, d in rng.sample(non_simple, 3):
        ops.append(_cli("witness", ["witness", "--verify"] + _flags(n, p, d=d), n, p, d=d))
    for k in range(3):
        n, p = _TRACE_CONFIGS[k]
        d = rng.randint(2, 3)
        rows = [[_text(p, element(rng, p, n, 3, 3)) for _ in range(d)] for _ in range(d)]
        name = f"taud_{k}.json"
        ops.append(_cli("taud", ["taud", name] + _flags(n, p), n, p, file=name, rows=rows))
    # Malformed input a user types: juxtaposition (syntax, exit 2), an index
    # beyond the alphabet and a quotient trace over Q (domain, exit 1), and a
    # witness request for a simple configuration (domain, exit 1).
    for _ in range(3):
        n = rng.randint(2, 3)
        text = f"{expr_text(_expr(rng, n, 2))} {expr_text(_expr(rng, n, 1))}"
        ops.append(_cli("nf", ["nf", text] + _flags(n, 0), n, 0, code=2))
    for _ in range(3):
        n = rng.randint(2, 3)
        e = ["*", _expr(rng, n, 1), [rng.choice("xy"), n + rng.randint(1, 9)]]
        ops.append(_cli("nf", ["nf", expr_text(e)] + _flags(n, 0), n, 0, code=1))
    for _ in range(2):
        n = rng.randint(2, 3)
        e = _expr(rng, n, 2)
        ops.append(_cli("trace", ["trace", expr_text(e)] + _flags(n, 0, "leavitt"), n, 0, code=1))
    simple = [c for c in small if oracle.verdict(*c)[0]]
    p, n, d = rng.choice(simple)
    ops.append(_cli("witness", ["witness", "--verify"] + _flags(n, p, d=d), n, p, d=d, code=1))
    return ops


_GENERATORS = {
    "cohn_products": _cohn_products,
    "leavitt_nf": _leavitt_nf,
    "witness_grid": _witness_grid,
    "cli_session": _cli_session,
}

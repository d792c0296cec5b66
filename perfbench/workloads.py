"""The four workloads: set-up from plain inputs, operations, and checks.

Each workload turns the generated plain inputs into library objects
(`setup`, the timed set-up), wraps one call per input into a thunk
(`thunks`), reduces a thunk's output to a comparable plain value
(`render`, outside the timed region) and checks that value against the
independent references in `oracle` (`check`).  All calls go through the
attributes of the imported `leavitt` modules at call time, so that the
tracer's patched bindings are the ones used.
"""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys

import oracle

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

def to_cohn(lv, p, n, text):
    """Library Cohn element from canonical text, via the public parse_element."""
    return lv.parse_element(text, n, lv.FieldSpec(p))


def _plain(op, key="a"):
    return oracle.parse_element(op["p"], op[key])


# --- in-process workloads -----------------------------------------------------


class CohnProducts:
    name = "cohn_products"
    module = "leavitt"

    def setup(self, lv, ops):
        return [(to_cohn(lv, op["p"], op["n"], op["a"]), to_cohn(lv, op["p"], op["n"], op["b"]))
                for op in ops]

    def thunks(self, lv, objs, ops, ctx):
        return [lambda a=a, b=b: (a * b, b * a, a.bracket(b)) for a, b in objs]

    def render(self, out):
        return tuple(str(x) for x in out)

    def check(self, op, got):
        p = op["p"]
        a, b = _plain(op, "a"), _plain(op, "b")
        ab, ba = oracle.mul(p, a, b), oracle.mul(p, b, a)
        want = (ab, ba, oracle.add(p, ab, ba, -1))
        return got == tuple(oracle.format_element(p, x) for x in want)


class LeavittNF:
    name = "leavitt_nf"
    module = "leavitt"

    def setup(self, lv, ops):
        objs = []
        for op in ops:
            p, n = op["p"], op["n"]
            a = to_cohn(lv, p, n, op["a"])
            if op["kind"] == "nf":
                objs.append((a, None))
            elif op["kind"] == "nfprod":
                objs.append((a * to_cohn(lv, p, n, op["b"]), None))
            elif op["kind"] == "lpow":
                objs.append((lv.normal_form(a), op["k"]))
            else:
                objs.append((lv.normal_form(a), lv.normal_form(to_cohn(lv, p, n, op["b"]))))
        return objs

    def thunks(self, lv, objs, ops, ctx):
        out = []
        for op, (a, b) in zip(ops, objs):
            kind = op["kind"]
            if kind in ("nf", "nfprod"):
                out.append(lambda a=a: lv.normal_form(a))
            elif kind == "lmul":
                out.append(lambda a=a, b=b: a * b)
            elif kind == "lbracket":
                out.append(lambda a=a, b=b: a.bracket(b))
            else:
                out.append(lambda a=a, k=b: a ** k)
        return out

    def render(self, out):
        return str(out)

    def check(self, op, got):
        p, n, kind = op["p"], op["n"], op["kind"]
        a = _plain(op)
        if kind == "nf":
            want = a
        elif kind == "nfprod":
            want = oracle.mul(p, a, _plain(op, "b"))
        elif kind == "lpow":
            want = oracle.power(p, a, op["k"], n)
        else:
            f = oracle.mul if kind == "lmul" else oracle.bracket
            want = f(p, a, _plain(op, "b"))
        return got == oracle.format_element(p, oracle.nf(p, n, want))


class WitnessGrid:
    name = "witness_grid"
    module = "leavitt"

    def setup(self, lv, ops):
        return [lv.FieldSpec(op["p"]) for op in ops]

    def thunks(self, lv, objs, ops, ctx):
        def run(spec, n, d):
            verdict = lv.is_simple(spec, n, d)
            try:
                witness = lv.build_witness(spec, n, d)
            except ValueError:  # expected exactly when the verdict is "simple"
                return verdict.simple, verdict.reason.value, None, None
            doc = lv.witness_to_doc(witness)
            return verdict.simple, verdict.reason.value, doc, lv.verify_witness(lv.witness_from_doc(doc))

        return [lambda s=spec, op=op: run(s, op["n"], op["d"]) for spec, op in zip(objs, ops)]

    def render(self, out):
        simple, reason, doc, verified = out
        return simple, reason, None if doc is None else json.dumps(doc), verified

    def check(self, op, got):
        p, n, d = op["p"], op["n"], op["d"]
        simple, reason, doc, verified = got
        want_simple, want_reason = oracle.verdict(p, n, d)
        if (simple, reason) != (want_simple, want_reason):
            return False
        if want_simple:
            return doc is None and verified is None
        return doc is not None and verified is True and oracle.check_witness_doc(json.loads(doc), p, n, d)


# --- cli_session ----------------------------------------------------------------


def eval_expr(p, n, e):
    """Value of a generated expression tree in the Cohn algebra, on plain data."""
    kind = e[0]
    if kind == "int":
        c = oracle.scalar(p, e[1])
        return {((), ()): c} if c else {}
    if kind == "x":
        return {((e[1],), ()): oracle.scalar(p, 1)}
    if kind == "y":
        return {((), (e[1],)): oracle.scalar(p, 1)}
    if kind == "^":
        return oracle.power(p, eval_expr(p, n, e[1]), e[2])
    a, b = eval_expr(p, n, e[1]), eval_expr(p, n, e[2])
    if kind == "+":
        return oracle.add(p, a, b)
    if kind == "-":
        return oracle.add(p, a, b, -1)
    if kind == "*":
        return oracle.mul(p, a, b)
    return oracle.bracket(p, a, b)


def cli_expected(op):
    """The `result` a successful command must print, or None for a witness."""
    p, n, d, mode, cmd = op["p"], op["n"], op["d"], op["mode"], op["cmd"]
    if cmd == "simple":
        simple, reason = oracle.verdict(p, n, d)
        return {"simple": simple, "reason": reason}
    if cmd == "taud":
        t = sum(oracle.trace(p, oracle.nf(p, n, oracle.parse_element(p, op["rows"][i][i])))
                for i in range(len(op["rows"])))
        return oracle.format_scalar(p, oracle.scalar(p, t))
    if cmd == "witness":
        return None
    vals = [eval_expr(p, n, e) for e in op["exprs"]]
    v = oracle.bracket(p, *vals) if cmd == "bracket" else vals[0]
    if mode != "cohn":
        v = oracle.nf(p, n, v)
    if cmd == "trace":
        t = oracle.trace(p, v)
        return oracle.format_scalar(p, oracle.scalar(p, t * d if mode == "matrix" else t))
    text = oracle.format_element(p, v)
    if mode == "matrix":
        return [[text if i == j else "0" for j in range(d)] for i in range(d)]
    return text


def check_reply(op, code, stdout, stderr):
    """One JSON line on stdout, nothing on stderr, the right exit code and result."""
    if stderr or not stdout.endswith("\n") or stdout.count("\n") != 1 or code != op["code"]:
        return False
    try:
        doc = json.loads(stdout)
    except ValueError:
        return False
    if not isinstance(doc, dict):
        return False
    if op["code"] != 0:
        return set(doc) == {"ok", "reason"} and doc["ok"] is False and isinstance(doc["reason"], str)
    if set(doc) != {"ok", "result"} or doc["ok"] is not True:
        return False
    if op["cmd"] == "witness":
        result = doc["result"]
        return (isinstance(result, dict) and result.get("verified") is True
                and oracle.check_witness_doc(result, op["p"], op["n"], op["d"]))
    return doc["result"] == cli_expected(op)


def child_env():
    env = dict(os.environ)
    env.pop("LEAVITT_CHAR", None)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class CliSession:
    """One `python -m leavitt.cli` process per operation, run in `ctx["workdir"]`.

    With ctx["child"] set to "trace" or "profile" the command runs under
    cli_child.py instead, which writes spans or profiler counts to a file
    and is otherwise the same process.
    """

    name = "cli_session"
    module = "leavitt.cli"

    def setup(self, lv, ops):
        cli = importlib.import_module("leavitt.cli")
        parser = cli.build_arg_parser()
        return [parser.parse_args(op["argv"]) for op in ops]

    def write_files(self, ops, workdir):
        for op in ops:
            if "file" in op:
                with open(os.path.join(workdir, op["file"]), "w", encoding="utf-8") as fh:
                    json.dump(op["rows"], fh)

    def thunks(self, lv, objs, ops, ctx):
        workdir, env, mode = ctx["workdir"], ctx["env"], ctx.get("child")
        side = os.path.join(workdir, "child.json")

        def run(argv):
            if mode is None:
                cmd = [sys.executable, "-m", "leavitt.cli", *argv]
            else:
                cmd = [sys.executable, os.path.join(HERE, "cli_child.py"), mode, side, *argv]
            proc = subprocess.run(cmd, cwd=workdir, env=env, capture_output=True,
                                  text=True, timeout=60)
            extra = None
            if mode is not None and os.path.exists(side):
                with open(side, encoding="utf-8") as fh:
                    extra = json.load(fh)
                os.remove(side)
            return proc.returncode, proc.stdout, proc.stderr, extra

        return [lambda argv=op["argv"]: run(argv) for op in ops]

    def render(self, out):
        return out[:3]

    def check(self, op, got):
        return check_reply(op, *got)


WORKLOADS = {w.name: w for w in (CohnProducts(), LeavittNF(), WitnessGrid(), CliSession())}

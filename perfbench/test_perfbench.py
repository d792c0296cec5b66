"""Self-tests of the benchmark harness.

    python3 -m pytest perfbench -q

They check the independent references, the seeded inputs, that failures
are counted, that tracing changes no output and restores what it patched,
and that the counts the per-layer metrics rest on repeat exactly.
"""

from __future__ import annotations

import gc
import importlib
import json
import sys
from fractions import Fraction

import pytest

import gen
import oracle
import refspeed
import run
import tracing
import workloads

sys.path.insert(0, workloads.SRC)
lv = importlib.import_module("leavitt")
importlib.import_module("leavitt.cli")

EXACT_COUNTS = (
    "cohn.mono_products", "cohn.out_terms", "leavitt.nf_in_terms", "leavitt.nf_out_terms",
    "matrix.entry_products", "simplicity.pairs", "coeffs.scalar_ops", "words.word_builds",
)


def small_ops(name):
    """A few cheap operations of each kind in the workload, from seed 0."""
    ops = gen.generate(name, 0)
    if name == "cohn_products":
        return sorted(ops, key=lambda op: len(op["a"]) + len(op["b"]))[:4]
    if name == "leavitt_nf":
        picked = {}
        for op in sorted(ops, key=lambda op: (len(op["a"]), op.get("k", 0))):
            picked.setdefault(op["kind"], op)
        return list(picked.values())
    if name == "witness_grid":
        keep = {(0, 2, 2), (2, 3, 1), (2, 3, 2), (3, 4, 3)}
        return [op for op in ops if (op["p"], op["n"], op["d"]) in keep]
    return [op for op in ops if op["cmd"] in ("nf", "simple")][:3] + [op for op in ops if op["code"] == 2][:1]


def prepared(name, ops, tmp_path):
    w = workloads.WORKLOADS[name]
    if name == "cli_session":
        w.write_files(ops, str(tmp_path))
    ctx = {"workdir": str(tmp_path), "env": workloads.child_env()}
    return w, w.setup(lv, ops), ctx


# --- references -----------------------------------------------------------------


def test_oracle_matches_defining_relations():
    for n in (2, 3, 4):
        ideal = {((), ()): Fraction(1)}
        for i in range(1, n + 1):
            ideal[(i,), (i,)] = Fraction(-1)
        assert oracle.nf(0, n, ideal) == {}
    assert oracle.mono_mul((), (1,), (2,), ()) is None
    assert oracle.mono_mul((), (1,), (1,), ()) == ((), ())
    assert oracle.mono_mul((2,), (2, 1), (1, 2, 3), (1,)) == ((2, 3), (1,))
    assert oracle.verdict(2, 3, 1) == (True, "CharDividesN1AndNotD")
    assert oracle.verdict(2, 3, 2) == (False, "CharDividesD")
    assert oracle.verdict(0, 3, 1) == (False, "CharNotDividesN1")


def test_closed_form_matches_stepwise_rewriting():
    # x_{A 3^2} y_{3^3 B}: two junction rewrites, each spawning n-1 terms
    a = {((1, 3, 3), (3, 3, 3, 2)): 5}
    want = {((1,), (3, 2)): 5}
    for t in (1, 2):
        for i in (1, 2):
            want[(1,) + (3,) * (2 - t) + (i,), (i,) + (3,) * (3 - t) + (2,)] = -5 % 7
    assert oracle.nf(7, 3, a) == want


def test_canonical_text_round_trips_against_the_package():
    for name in ("cohn_products", "leavitt_nf"):
        for op in small_ops(name):
            p, n = op["p"], op["n"]
            assert str(workloads.to_cohn(lv, p, n, op["a"])) == op["a"]
            assert oracle.format_element(p, oracle.parse_element(p, op["a"])) == op["a"]


# --- inputs -------------------------------------------------------------------------


@pytest.mark.parametrize("name", gen.WORKLOADS)
def test_inputs_depend_only_on_the_seed(name):
    assert gen.digest(gen.generate(name, 3)) == gen.digest(gen.generate(name, 3))
    assert gen.digest(gen.generate(name, 3)) != gen.digest(gen.generate(name, 4))


def test_workload_shape_does_not_depend_on_the_seed():
    def shape(ops):
        return sorted((op["kind"], op["p"], op["n"], op["a"].count("+") + op["a"].count(" - "))
                      for op in ops)

    assert shape(gen.generate("cohn_products", 1)) == shape(gen.generate("cohn_products", 2))


# --- failures are counted -----------------------------------------------------------


class Corrupted:
    """A workload whose `at`-th rendered output (counting from 0) is corrupted."""

    def __init__(self, inner, corrupt, at):
        self.inner, self.corrupt, self.at, self.calls = inner, corrupt, at, 0
        self.name = inner.name

    def __getattr__(self, attr):
        return getattr(self.inner, attr)

    def render(self, out):
        got = self.inner.render(out)
        self.calls += 1
        return self.corrupt(got) if self.calls == self.at + 1 else got


def _flip_first_coefficient(text):
    head, sep, rest = text.partition("*")
    return f"{int(head) + 1}{sep}{rest}" if head.isdigit() else f"2*{text}"


@pytest.mark.parametrize("name", ["cohn_products", "leavitt_nf"])
def test_flipped_coefficient_raises_failed_frac(name, tmp_path):
    ops = small_ops(name)
    w, objs, ctx = prepared(name, ops, tmp_path)
    attempted, failed, _, _ = run.timed_run(w, lv, objs, ops, ctx, 0.0)
    assert failed == 0 and attempted >= run.MIN_OPS

    if name == "cohn_products":
        def corrupt(got):
            return (_flip_first_coefficient(got[0]),) + got[1:]
    else:
        corrupt = _flip_first_coefficient
    # in the first timed pass: that operation fails its check, in every pass
    first = Corrupted(w, corrupt, run.WARMUP_OPS)
    attempted, failed, _, _ = run.timed_run(first, lv, objs, ops, ctx, 0.0)
    assert failed == attempted // len(ops)
    # in a later pass: the output differs from the first pass's
    later = Corrupted(w, corrupt, run.WARMUP_OPS + len(ops) + 1)
    attempted, failed, _, _ = run.timed_run(later, lv, objs, ops, ctx, 0.0)
    assert failed == 1


def test_corrupted_witness_document_fails():
    op = {"kind": "witness", "p": 0, "n": 2, "d": 2}
    w = workloads.WORKLOADS["witness_grid"]
    got = w.render(w.thunks(lv, w.setup(lv, [op]), [op], {})[0]())
    assert w.check(op, got)
    doc = json.loads(got[2])
    doc["pairs"][0][0][0][0] = _flip_first_coefficient(doc["pairs"][0][0][0][0])
    assert not w.check(op, got[:2] + (json.dumps(doc),) + got[3:])


def test_cli_reply_must_be_one_json_line_with_the_right_code():
    op = {"cmd": "simple", "p": 2, "n": 3, "d": 1, "mode": "leavitt", "code": 0}
    line = '{"ok":true,"result":{"simple":true,"reason":"CharDividesN1AndNotD"}}\n'
    assert workloads.check_reply(op, 0, line, "")
    assert not workloads.check_reply(op, 0, line + line, "")
    assert not workloads.check_reply(op, 0, line, "Traceback (most recent call last):\n")
    assert not workloads.check_reply(op, 1, line, "")
    assert not workloads.check_reply(op, 0, line.rstrip("\n"), "")
    assert not workloads.check_reply(op, 0, '{"ok":true,"result":{"simple":false,"reason":"CharDividesD"}}\n', "")
    err = dict(op, code=2)
    assert workloads.check_reply(err, 2, '{"ok":false,"reason":"expected an atom (at position 3)"}\n', "")
    assert not workloads.check_reply(err, 1, '{"ok":false,"reason":"x"}\n', "")


# --- tracing --------------------------------------------------------------------


def _bindings():
    out = {}
    for mod in tracing._loaded_modules():
        for key, value in vars(mod).items():
            out[mod.__name__, key] = value
            if isinstance(value, type) and value.__module__.startswith("leavitt"):
                for attr, member in vars(value).items():
                    out[mod.__name__, key, attr] = member
    return out


@pytest.mark.parametrize("name", ["cohn_products", "leavitt_nf", "witness_grid"])
def test_tracing_changes_no_output_and_restores_every_binding(name, tmp_path):
    ops = small_ops(name)
    w, objs, ctx = prepared(name, ops, tmp_path)
    before = _bindings()
    _, plain = run.run_pass(w, w.thunks(lv, objs, ops, ctx))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert any(getattr(v, "__wrapped_by_perfbench__", False) for v in _bindings().values())
        _, traced = run.run_pass(w, w.thunks(lv, objs, ops, ctx), tracer=tracer)
    finally:
        tracer.uninstall()
    assert traced == plain
    assert tracer.spans and all(s[4] is not None for s in tracer.spans)
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_every_binding_of_a_boundary_is_patched():
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for name in ("leavitt", "leavitt.leavitt", "leavitt.matrix"):
            assert sys.modules[name].normal_form.__wrapped_by_perfbench__
        for name in ("leavitt", "leavitt.parser", "leavitt.cli"):
            assert sys.modules[name].parse.__wrapped_by_perfbench__
    finally:
        tracer.uninstall()


@pytest.mark.parametrize("name", gen.WORKLOADS)
def test_counts_repeat_exactly(name, tmp_path):
    ops = small_ops(name)
    w, objs, ctx = prepared(name, ops, tmp_path)
    first = run.traced_run(w, lv, objs, ops, ctx)
    second = run.traced_run(w, lv, objs, ops, ctx)
    assert first[1] == 0 and second[1] == 0
    assert set(first[2]) == set(tracing.UNITS)
    for key in EXACT_COUNTS:
        assert first[2][key] == second[2][key], key


def test_summarize_takes_the_wrapper_cost_out_once_per_descendant():
    # cohn.mul (1.0 s) holds leavitt.nf (0.5 s), which holds cohn.mul (0.25 s)
    spans = [["cohn.mul", 0.0, 1.0, -1, 0, None, 0.0],
             ["leavitt.nf", 0.2, 0.7, 0, 0, None, 0.0],
             ["cohn.mul", 0.3, 0.55, 1, 0, None, 0.0]]
    m, _ = tracing.summarize(spans, 1.0, cost=0.01)
    assert m["cohn.mul_s"] == pytest.approx(1.0 - 2 * 0.01)
    assert m["leavitt.nf_s"] == pytest.approx(0.5 - 0.01)
    assert m["leavitt.self_s"] == pytest.approx(0.5 - 0.01 - 0.25)
    assert m["cohn.self_s"] == pytest.approx((1.0 - 0.02 - 0.49) + 0.25)


def test_span_cost_is_small_and_positive():
    assert 0 < tracing.span_cost() < 1e-4


def test_latency_is_scaled_by_the_kernel_samples_nearest_the_operation():
    speed = refspeed.Speedometer()
    speed.at = [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]
    speed.took = [1.0, 1.0, 1.0, 2.0, 2.0, 2.0]
    speed.starts = [0.5, 4.5]
    nominal = refspeed.NOMINAL_S
    # the machine ran at half speed around the second operation
    assert speed.normalize([1.0, 1.0]) == [nominal, nominal / 2]


def test_kernel_sample_restores_the_collector():
    assert gc.isenabled()
    assert refspeed.sample() > 0
    assert gc.isenabled()
    gc.disable()
    try:
        refspeed.sample()
        assert not gc.isenabled()
    finally:
        gc.enable()

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from leavitt import SessionConfig
from leavitt.cli import ENV_CHAR, MAX_GRID_ROWS, MAX_WITNESS_CELLS, _resolve_config, build_arg_parser, main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out.strip()
    return code, json.loads(out)


def test_simple_verdict_golden(capsys):
    code, doc = run(capsys, "simple", "--n", "3", "--d", "1", "--char", "2")
    assert code == 0
    assert doc == {"ok": True, "result": {"simple": True, "reason": "CharDividesN1AndNotD"}}


def test_simple_verdict_golden_bytes(capsys):
    code = main(["simple", "--n", "3", "--d", "1", "--char", "2"])
    out = capsys.readouterr().out
    assert code == 0
    assert out == '{"ok":true,"result":{"simple":true,"reason":"CharDividesN1AndNotD"}}\n'


def test_simple_not_simple_reasons(capsys):
    _, doc = run(capsys, "simple", "--n", "3", "--d", "1", "--char", "3")
    assert doc["result"] == {"simple": False, "reason": "CharNotDividesN1"}
    _, doc = run(capsys, "simple", "--n", "3", "--d", "2", "--char", "2")
    assert doc["result"] == {"simple": False, "reason": "CharDividesD"}


def test_trace_golden(capsys):
    code, doc = run(capsys, "trace", "x1*y1", "--n", "3", "--char", "2", "--mode", "leavitt")
    assert code == 0
    assert doc == {"ok": True, "result": "1 mod 2"}


def test_nf_in_both_modes(capsys):
    _, doc = run(capsys, "nf", "1 - x1*y1 - x2*y2", "--n", "2", "--mode", "cohn")
    assert doc["result"] == "1 - x[1]*y[1] - x[2]*y[2]"
    _, doc = run(capsys, "nf", "1 - x1*y1 - x2*y2", "--n", "2", "--mode", "leavitt")
    assert doc["result"] == "0"


def test_bracket_command(capsys):
    _, doc = run(capsys, "bracket", "x1", "y1", "--n", "2", "--mode", "cohn")
    assert doc["result"] == "-1 + x[1]*y[1]"


def test_nf_matrix_mode(capsys):
    _, doc = run(capsys, "nf", "2", "--n", "2", "--d", "2", "--mode", "matrix")
    assert doc["result"] == [["2", "0"], ["0", "2"]]


def test_parse_error_exit_code(capsys):
    code, doc = run(capsys, "nf", "x1 y2", "--n", "3")
    assert code == 2
    assert doc["ok"] is False
    assert "position" in doc["reason"]


def test_domain_error_exit_code(capsys):
    code, doc = run(capsys, "trace", "x1*y1", "--n", "3", "--char", "5")
    assert code == 1
    assert doc["ok"] is False
    assert "does not divide" in doc["reason"]


def test_out_of_range_index_is_a_domain_error(capsys):
    code, doc = run(capsys, "nf", "x12", "--n", "3")
    assert code == 1
    assert "outside" in doc["reason"]


def test_running_out_of_memory_is_a_reported_domain_error(capsys, monkeypatch):
    import leavitt.cli

    def exhaust(args):
        raise MemoryError

    monkeypatch.setattr(leavitt.cli, "_cmd_nf", exhaust)
    code = main(["nf", "x1^1000000", "--n", "2"])
    out = capsys.readouterr().out
    assert code == 1 and out.count("\n") == 1
    assert json.loads(out) == {"ok": False, "reason": "out of memory"}


def test_witness_with_verification(capsys):
    code, doc = run(capsys, "witness", "--n", "3", "--d", "2", "--char", "2", "--verify")
    assert code == 0
    result = doc["result"]
    assert result["verified"] is True
    assert result["characteristic"] == 2 and result["n"] == 3 and result["d"] == 2
    assert result["pairs"] == [[[["0", "1"], ["0", "0"]], [["0", "0"], ["1", "0"]]]]


def test_witness_for_simple_configuration_fails(capsys):
    code, doc = run(capsys, "witness", "--n", "3", "--d", "1", "--char", "2")
    assert code == 1
    assert "simple" in doc["reason"]


def test_taud_command(tmp_path, capsys):
    path = tmp_path / "matrix.json"
    path.write_text(json.dumps([["1", "0"], ["0", "1"]]))
    code, doc = run(capsys, "taud", str(path), "--n", "3", "--char", "2")
    assert code == 0
    assert doc["result"] == "0 mod 2"  # 2 * 1 = 0 in characteristic 2


def test_taud_names_a_malformed_block(tmp_path, capsys):
    path = tmp_path / "matrix.json"
    path.write_text(json.dumps([["x[1,,2]"]]))
    code, doc = run(capsys, "taud", str(path), "--n", "3", "--char", "2")
    assert code == 1
    assert doc == {"ok": False, "reason": "bad generator word in 'x[1,,2]'"}


def test_nf_reads_the_printed_form(capsys):
    # blocks, fractions and a leading sign: the text nf prints is also text it reads
    assert run(capsys, "nf", "x[1,2]*y[2]", "--n", "2") == run(capsys, "nf", "x1*x2*y2", "--n", "2")
    assert run(capsys, "nf", "1/2*x1", "--n", "2") == (0, {"ok": True, "result": "1/2*x[1]"})
    assert run(capsys, "nf", "1/2*x1", "--n", "2", "--char", "5") == (0, {"ok": True, "result": "3*x[1]"})
    text = "-1 + x[1]*y[1]"
    assert run(capsys, "nf", text, "--n", "2", "--mode", "cohn") == (0, {"ok": True, "result": text})
    # a one-term output starts with '-' and has no space, so it follows '--'
    assert run(capsys, "nf", "--n", "2", "--mode", "cohn", "--", "-x[1]") == (0, {"ok": True, "result": "-x[1]"})


@pytest.mark.parametrize(
    "expr, code, reason",
    [
        ("x1 y2", 2, "unexpected trailing 'y2' (at position 3)"),
        ("x1^4/2", 2, "exponent must be a positive integer (at position 3)"),
        ("x[1,,2]", 2, "bad generator word in 'x[1,,2]' (at position 0)"),
        ("x\u0661", 2, "generator 'x' needs an index (at position 0)"),
        ("x[1+2]", 2, "bad generator word in 'x[1+2]' (at position 0)"),
        ("x[\u0661]", 2, "bad generator word in 'x[\u0661]' (at position 0)"),
        ("y[1", 2, "bad generator word in 'y[1' (at position 0)"),
        ("x1*y[2", 2, "bad generator word in 'y[2' (at position 3)"),
        ("\u0663*x1", 2, "unexpected character '\u0663' (at position 0)"),
        ("x[3]*y[1]", 1, "generator index 3 outside [1, 2]"),
        ("1/2*x1", 1, "division by zero in F2"),
    ],
)
def test_nf_refuses_text_outside_the_grammar(capsys, expr, code, reason):
    assert run(capsys, "nf", expr, "--n", "2", "--char", "2") == (code, {"ok": False, "reason": reason})


def test_integer_literals_beyond_the_digit_limit_are_reported(tmp_path, capsys):
    digits = "1" * (sys.get_int_max_str_digits() + 700)
    reason = f"integer literal of {len(digits)} digits exceeds the limit of {sys.get_int_max_str_digits()} digits"
    assert run(capsys, "nf", f"{digits}*x1", "--n", "2") == (2, {"ok": False, "reason": reason + " (at position 0)"})
    path = tmp_path / "matrix.json"
    path.write_text(json.dumps([[f"{digits}*x[1]"]]))
    assert run(capsys, "taud", str(path), "--n", "3", "--char", "2") == (1, {"ok": False, "reason": reason})


def test_taud_missing_file(tmp_path, capsys):
    code, doc = run(capsys, "taud", str(tmp_path / "nope.json"), "--n", "3", "--char", "2")
    assert code == 1


def test_taud_bad_json_is_a_parse_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("not json")
    code, doc = run(capsys, "taud", str(path), "--n", "3", "--char", "2")
    assert code == 2


def test_taud_too_deeply_nested_json_is_a_parse_error(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    code = main(["taud", str(path), "--n", "3", "--char", "2"])
    out, err = capsys.readouterr()
    assert code == 2 and err == ""
    assert json.loads(out) == {"ok": False, "reason": "matrix file nests too deeply: line 1 column 1 (char 0)"}
    assert out.count("\n") == 1


def test_grid_command(capsys):
    code, doc = run(
        capsys, "grid", "--chars", "0,2", "--n-range", "2:3", "--d-range", "1:2",
        "--witnesses",
    )
    assert code == 0
    rows = doc["result"]
    assert len(rows) == 8
    for row in rows:
        assert set(row) >= {"characteristic", "n", "d", "simple", "reason"}
        if row["simple"]:
            assert "witness_verified" not in row
        else:
            assert row["witness_verified"] is True
    simple_rows = [r for r in rows if r["simple"]]
    assert [(r["characteristic"], r["n"], r["d"]) for r in simple_rows] == [(2, 3, 1)]


def test_pretty_flag(capsys):
    code = main(["simple", "--n", "3", "--d", "1", "--char", "2", "--pretty"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("{\n")
    assert json.loads(out)["ok"] is True


def test_defaults_without_flags(capsys):
    # defaults: n=2, d=1, char=0, mode=leavitt
    code, doc = run(capsys, "nf", "x1*y1 + x2*y2")
    assert code == 0
    assert doc["result"] == "1"


def _resolved(*argv):
    return _resolve_config(build_arg_parser().parse_args(["nf", "x1", *argv]))


def test_config_file_and_flag_precedence(tmp_path, monkeypatch, capsys):
    cfg = tmp_path / "session.cfg"
    monkeypatch.delenv(ENV_CHAR, raising=False)
    cfg.write_text("# session\nn = 3\nchar = 2\nmode = leavitt\n")
    code, doc = run(capsys, "trace", "x1*y1", "--config", str(cfg))
    assert code == 0
    assert doc["result"] == "1 mod 2"
    # an explicit flag wins over the config file
    code, doc = run(capsys, "trace", "x1*y1", "--config", str(cfg), "--char", "5")
    assert code == 1
    assert _resolved() == SessionConfig()
    # the environment sits under the file, the file under the flags, and each
    # layer changes only the settings it names
    monkeypatch.setenv(ENV_CHAR, "3")
    below = _resolved()
    assert below == SessionConfig(characteristic=3)
    for key, field, in_file, on_flag in (
        ("n", "n", 3, 4), ("d", "d", 2, 3), ("char", "characteristic", 2, 5), ("mode", "mode", "cohn", "matrix")
    ):
        cfg.write_text(f"# session\n{key} = {in_file}\n")
        assert _resolved("--config", str(cfg)) == below._replace(**{field: in_file})
        flagged = _resolved("--config", str(cfg), f"--{key}", str(on_flag))
        assert flagged == below._replace(**{field: on_flag})


def test_config_file_integers_are_checked_in_a_fixed_order(tmp_path, monkeypatch, capsys):
    # n is checked before d whatever the line order in the file
    monkeypatch.chdir(tmp_path)
    (tmp_path / "session.cfg").write_text("d=x\nn=y\n")
    assert main(["nf", "x1", "--config", "session.cfg"]) == 2
    assert capsys.readouterr().out == '{"ok":false,"reason":"session.cfg: n must be an integer, got \'y\'"}\n'


def test_config_file_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "session.cfg"
    for text, reason in (("alphabet = 3\n", "unknown config key"), ("n 3\n", "expected key=value")):
        cfg.write_text(text)
        code, doc = run(capsys, "nf", "x1", "--config", str(cfg))
        assert code == 1
        assert reason in doc["reason"]


def test_env_var_sets_default_characteristic(capsys, monkeypatch):
    monkeypatch.setenv("LEAVITT_CHAR", "2")
    code, doc = run(capsys, "trace", "x1*y1", "--n", "3")
    assert code == 0
    assert doc["result"] == "1 mod 2"
    # config file overrides the environment
    monkeypatch.setenv("LEAVITT_CHAR", "5")
    code, doc = run(capsys, "trace", "x1*y1", "--n", "3", "--char", "2")
    assert doc["result"] == "1 mod 2"


GOLDEN = Path(__file__).parent / "golden"
# Operands whose products meet every branch of the Cohn pair loop.
BRACKET_LEFT = "x1*y2*y3 + 2*x3^2*y1 - 3*y2 + x2*x1*y3*y3 - 4"
BRACKET_RIGHT = "x3*y1 + 5*x1*x2*y3 - y1^2 + 2*x2 - x3*x2*y2*y1 + [x1, y3*y2]"


@pytest.mark.parametrize(
    "argv, golden",
    [
        (["witness", "--verify", "--n", "3", "--d", "4"], "witness_verify_n3_d4.json"),
        (
            ["grid", "--chars", "0,2,3", "--n-range", "2:4", "--d-range", "1:4",
             "--witnesses", "--probe"],
            "grid_chars_0_2_3_n2-4_d1-4_witnesses_probe.json",
        ),
        *(
            (["bracket", BRACKET_LEFT, BRACKET_RIGHT, "--n", "3", "--char", str(p), "--mode", mode,
              *(["--d", "2"] if mode == "matrix" else [])],
             f"bracket_{mode}_n3_char{p}.json")
            for mode in ("cohn", "leavitt", "matrix")
            for p in (0, 5)
        ),
    ],
)
def test_golden_stdout_bytes(capsys, argv, golden):
    code = main(argv)
    assert code == 0
    assert capsys.readouterr().out == (GOLDEN / golden).read_text(encoding="utf-8")


@pytest.mark.parametrize("content", ['[[1]]', '"1"'])
def test_taud_rejects_a_matrix_that_is_not_a_list_of_lists_of_strings(tmp_path, capsys, content):
    path = tmp_path / "matrix.json"
    path.write_text(content)
    code, doc = run(capsys, "taud", str(path), "--n", "3", "--char", "2")
    assert code == 1
    assert doc["ok"] is False and "list of lists" in doc["reason"]


@pytest.mark.parametrize(
    "expr",
    ["(" * 3000 + "x1" + ")" * 3000, "+".join(["x1"] * 3000)],
    ids=["nested-parentheses", "long-sum"],
)
def test_too_deep_expressions_are_parse_errors(capsys, expr):
    code, doc = run(capsys, "nf", expr)
    assert code == 2
    assert doc["ok"] is False and "deeper than" in doc["reason"]


def test_grid_rejects_session_flags(capsys):
    for flag in ("--n", "--d", "--char", "--mode", "--config"):
        code, doc = run(capsys, "grid", "--chars", "0", "--n-range", "2", "--d-range", "1",
                        flag, "leavitt")
        assert code == 2
        assert doc["ok"] is False and flag in doc["reason"]


def test_flags_must_be_spelled_in_full(capsys):
    code, doc = run(capsys, "nf", "x1", "--pre")
    assert code == 2
    assert doc == {"ok": False, "reason": "unrecognized arguments: --pre"}


def test_usage_errors_are_json_documents(capsys):
    for argv in ([], ["frobnicate"], ["nf"], ["simple", "--n", "three"]):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2 and captured.err == ""
        doc = json.loads(captured.out)
        assert doc["ok"] is False and doc["reason"]


def test_malformed_env_characteristic_is_a_flag_error(capsys, monkeypatch):
    monkeypatch.setenv("LEAVITT_CHAR", "two")
    code, doc = run(capsys, "nf", "x1")
    assert code == 2
    assert "LEAVITT_CHAR" in doc["reason"]


def test_non_integer_config_value_is_a_flag_error(tmp_path, capsys):
    cfg = tmp_path / "session.cfg"
    cfg.write_text("n = three\n")
    code, doc = run(capsys, "nf", "x1", "--config", str(cfg))
    assert code == 2
    assert "must be an integer" in doc["reason"]


def test_unknown_config_mode_is_a_flag_error(tmp_path, monkeypatch, capsys):
    # as --mode weird is; the reason names the file and the key
    monkeypatch.chdir(tmp_path)
    (tmp_path / "session.cfg").write_text("mode = weird\n")
    assert main(["nf", "x1", "--config", "session.cfg"]) == 2
    assert capsys.readouterr().out == (
        '{"ok":false,"reason":"session.cfg: mode must be one of '
        "('cohn', 'leavitt', 'matrix'), got 'weird'\"}\n"
    )


def test_grid_row_count_is_bounded(capsys):
    code, doc = run(capsys, "grid", "--chars", "0", "--n-range", "2:100000",
                    "--d-range", "1:100000")
    assert code == 1
    assert doc["ok"] is False
    assert str(99999 * 100000) in doc["reason"] and str(MAX_GRID_ROWS) in doc["reason"]
    assert 6 * 7 * 6 < MAX_GRID_ROWS  # the acceptance grid


@pytest.mark.parametrize(
    "argv, cells",
    [(["--n", "3", "--d", "256"], 2 * 3 * 256**3), (["--n", "3", "--char", "2", "--d", "128"], 2 * 127 * 128**2)],
    ids=["n-d-pairs", "d-minus-1-pairs"],
)
def test_witness_document_size_is_bounded_before_the_witness_is_built(capsys, monkeypatch, argv, cells):
    import leavitt.simplicity

    def refuse(*args):
        raise AssertionError("the witness was built")

    monkeypatch.setattr(leavitt.simplicity, "build_witness", refuse)
    monkeypatch.setattr(leavitt.simplicity, "witness_to_doc", refuse)
    code = main(["witness", *argv])
    out = capsys.readouterr().out
    assert code == 1 and out.count("\n") == 1
    reason = f"witness document of {cells} cells exceeds the limit of {MAX_WITNESS_CELLS} cells"
    assert json.loads(out) == {"ok": False, "reason": reason}


def test_witness_bound_leaves_the_tested_witnesses_and_simple_verdicts_alone(capsys):
    assert 2 * 8 * 16**3 < MAX_WITNESS_CELLS  # the largest n and d the tests and the benchmark use
    code, doc = run(capsys, "witness", "--n", "3", "--char", "2", "--d", "127")  # simple, above the limit
    assert code == 1
    assert doc["reason"] == "no witness exists: the Lie algebra is simple for F2, n=3, d=127"


@pytest.mark.parametrize("flag", ["--n-range", "--d-range"])
def test_grid_rejects_a_reversed_range(capsys, flag):
    ranges = {"--n-range": "2:3", "--d-range": "1:2", flag: "5:2"}
    code, doc = run(capsys, "grid", "--chars", "0", *[x for kv in ranges.items() for x in kv])
    assert code == 2
    assert doc["ok"] is False and flag in doc["reason"] and "reversed" in doc["reason"]


@pytest.mark.parametrize(
    "flag, value", [("--chars", "x"), ("--chars", "0,2,q"), ("--n-range", "abc"),
                    ("--n-range", "2:"), ("--d-range", "1:x")],
)
def test_grid_non_integer_values_name_the_flag(capsys, flag, value):
    argv = {"--chars": "0", "--n-range": "2", "--d-range": "1", flag: value}
    code, doc = run(capsys, "grid", *[x for kv in argv.items() for x in kv])
    assert code == 2
    assert doc["ok"] is False and flag in doc["reason"] and "invalid literal" not in doc["reason"]


def test_closed_stdout_exits_quietly():
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    proc = subprocess.Popen(
        [sys.executable, "-m", "leavitt.cli", "grid", "--chars", "0", "--n-range", "2",
         "--d-range", "1", "--pretty"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    proc.stdout.close()  # the reader goes away before the first write
    err = proc.stderr.read()
    assert proc.wait(timeout=60) == 1
    assert err == b""

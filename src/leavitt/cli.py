"""Command-line front end.

Every command writes a single JSON document to stdout:
{"ok": true, "result": ...} on success, {"ok": false, "reason": ...} on
failure.  Exit codes: 0 success, 1 domain error, 2 parse error (expression
syntax, bad flags, or an ill-formed LEAVITT_CHAR or config value: a non-integer
n, d or char, or an unknown mode); a malformed config line or key exits 1.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Dict, List, Optional

# Each command imports the modules beyond the parser that it runs, inside
# its handler, as a process runs exactly one command.
from .parser import _MODES, ParseError, SessionConfig, evaluate, parse

ENV_CHAR = "LEAVITT_CHAR"

# The most rows one grid command computes; a larger sweep is refused before
# its first row, as the rows are only printed once all are done.
MAX_GRID_ROWS = 10_000

# The most cells one dense witness document holds; a larger witness is
# refused before it is built, as its document grows like d^3.
MAX_WITNESS_CELLS = 2_000_000

# Each flag and config-file key, and the SessionConfig field it sets.
_SETTINGS = {"n": "n", "d": "d", "char": "characteristic", "mode": "mode"}


class _UsageError(Exception):
    """Bad flags or settings: a usage error, an ill-formed integer setting."""


class _ArgumentParser(argparse.ArgumentParser):
    # argparse reports usage errors through error(); raising keeps them on
    # the JSON path in main.  Subparsers are built from this class too.
    # Flags are matched only when spelled in full: a prefix such as --n
    # would otherwise be read as --n-range on grid.
    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):
        raise _UsageError(message)


def _int_setting(text: str, where: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise _UsageError(f"{where} must be an integer, got {text!r}") from None


def _read_config_file(path: str) -> Dict[str, str]:
    values: Dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, _, value = line.partition("=")
            key, value = key.strip(), value.strip()
            if key not in _SETTINGS:
                raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
            values[key] = value
    return values


def _resolve_config(args: argparse.Namespace) -> SessionConfig:
    """Layer the session settings: flags > config file > environment > SessionConfig's defaults."""
    settings = {}
    env_char = os.environ.get(ENV_CHAR)
    if env_char is not None:
        settings["characteristic"] = _int_setting(env_char, ENV_CHAR)
    file_values = _read_config_file(args.config) if args.config else {}
    for key, field in _SETTINGS.items():  # a file's integers are checked in this order
        if key in file_values:
            value = file_values[key]
            if isinstance(SessionConfig._field_defaults[field], int):
                value = _int_setting(value, f"{args.config}: {key}")
            elif value not in _MODES:
                raise _UsageError(f"{args.config}: {key} must be one of {_MODES}, got {value!r}")
            settings[field] = value
        if (flag := getattr(args, key)) is not None:
            settings[field] = flag
    return SessionConfig(**settings)


def _result_text(value, cfg: SessionConfig) -> object:
    if cfg.mode == "matrix":
        return value.to_strings()
    return str(value)


def _cmd_nf(args) -> object:
    cfg = _resolve_config(args)
    return _result_text(evaluate(parse(args.expr), cfg), cfg)


def _cmd_trace(args) -> object:
    cfg = _resolve_config(args)
    return str(evaluate(parse(args.expr), cfg).trace())


def _cmd_bracket(args) -> object:
    cfg = _resolve_config(args)
    left = evaluate(parse(args.left), cfg)
    right = evaluate(parse(args.right), cfg)
    return _result_text(left.bracket(right), cfg)


def _cmd_taud(args) -> object:
    from .matrix import matrix_from_strings

    cfg = _resolve_config(args)
    with open(args.matrix_file, "r", encoding="utf-8") as handle:
        try:
            rows = json.load(handle)
        except RecursionError:
            raise json.JSONDecodeError("matrix file nests too deeply", "", 0) from None
    matrix = matrix_from_strings(rows, cfg.n, cfg.spec)
    return str(matrix.trace())


def _cmd_simple(args) -> object:
    from .simplicity import is_simple

    cfg = _resolve_config(args)
    verdict = is_simple(cfg.spec, cfg.n, cfg.d)
    return {"simple": verdict.simple, "reason": verdict.reason.value}


def _cmd_witness(args) -> object:
    from .simplicity import _dense_cells, build_witness, verify_witness, witness_from_doc, witness_to_doc

    cfg = _resolve_config(args)
    cells = _dense_cells(cfg.spec, cfg.n, cfg.d)
    if cells > MAX_WITNESS_CELLS:
        raise ValueError(f"witness document of {cells} cells exceeds the limit of {MAX_WITNESS_CELLS} cells")
    witness = build_witness(cfg.spec, cfg.n, cfg.d)
    doc = witness_to_doc(witness)
    if args.verify:
        doc["verified"] = verify_witness(witness_from_doc(doc))
    return doc


def _parse_range(text: str, flag: str) -> range:
    lo_text, colon, hi_text = text.partition(":")
    lo = _int_setting(lo_text, flag)
    hi = _int_setting(hi_text, flag) if colon else lo
    if lo > hi:
        raise _UsageError(f"{flag}: range {text!r} is reversed, {lo} is above {hi}")
    return range(lo, hi + 1)


def _cmd_grid(args) -> object:
    from .simplicity import build_witness, is_simple, nontriviality_probe, verify_witness

    chars = [_int_setting(c, "--chars") for c in args.chars.split(",") if c.strip() != ""]
    n_range = _parse_range(args.n_range, "--n-range")
    d_range = _parse_range(args.d_range, "--d-range")
    count = len(chars) * len(n_range) * len(d_range)
    if count > MAX_GRID_ROWS:
        raise ValueError(f"grid of {count} rows exceeds the limit of {MAX_GRID_ROWS} rows")
    rows = []
    for characteristic in chars:
        for n in n_range:
            for d in d_range:
                cfg = SessionConfig(n=n, d=d, characteristic=characteristic)
                verdict = is_simple(cfg.spec, n, d)
                row = {
                    "characteristic": characteristic,
                    "n": n,
                    "d": d,
                    "simple": verdict.simple,
                    "reason": verdict.reason.value,
                }
                if args.witnesses and not verdict.simple:
                    row["witness_verified"] = verify_witness(
                        build_witness(cfg.spec, n, d)
                    )
                if args.probe:
                    row["nontrivial"] = nontriviality_probe(cfg.spec, n, d)
                rows.append(row)
    return rows


def _add_common(sub: argparse.ArgumentParser) -> None:
    defaults = SessionConfig._field_defaults
    sub.add_argument("--n", type=int, default=None, help=f"algebra order (default {defaults['n']})")
    sub.add_argument("--d", type=int, default=None, help=f"matrix dimension (default {defaults['d']})")
    sub.add_argument(
        "--char", type=int, default=None, help="field characteristic, 0 for the rationals"
    )
    sub.add_argument(
        "--mode", choices=_MODES, default=None,
        help=f"evaluation algebra (default {defaults['mode']})",
    )
    sub.add_argument("--config", default=None, help="key=value config file")
    _add_pretty(sub)


def _add_pretty(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--pretty", action="store_true", help="indent the JSON output")


def build_arg_parser() -> argparse.ArgumentParser:
    root = _ArgumentParser(
        prog="leavitt",
        description="Exact calculator for Cohn/Leavitt algebras and the "
        "simplicity of their matrix Lie algebras.",
    )
    subs = root.add_subparsers(dest="command", required=True)

    p = subs.add_parser("nf", help="evaluate an expression and print its normal form")
    p.add_argument("expr")
    _add_common(p)
    p.set_defaults(handler=_cmd_nf)

    p = subs.add_parser("trace", help="trace of an expression (mode-dependent functional)")
    p.add_argument("expr")
    _add_common(p)
    p.set_defaults(handler=_cmd_trace)

    p = subs.add_parser("bracket", help="Lie bracket of two expressions")
    p.add_argument("left")
    p.add_argument("right")
    _add_common(p)
    p.set_defaults(handler=_cmd_bracket)

    p = subs.add_parser("taud", help="matrix trace of a JSON matrix file over the Leavitt algebra")
    p.add_argument("matrix_file")
    _add_common(p)
    p.set_defaults(handler=_cmd_taud)

    p = subs.add_parser("simple", help="decide simplicity of the derived Lie algebra")
    _add_common(p)
    p.set_defaults(handler=_cmd_simple)

    p = subs.add_parser("witness", help="construct a bracket-sum identity witness")
    p.add_argument("--verify", action="store_true", help="re-evaluate the witness after a serialization round trip")
    _add_common(p)
    p.set_defaults(handler=_cmd_witness)

    p = subs.add_parser("grid", help="sweep verdicts over characteristics, n, and d")
    p.add_argument("--chars", required=True, help="comma-separated characteristics, e.g. 0,2,3")
    p.add_argument("--n-range", required=True, help="inclusive range lo:hi or a single value")
    p.add_argument("--d-range", required=True, help="inclusive range lo:hi or a single value")
    p.add_argument("--witnesses", action="store_true", help="also build and verify witnesses for non-simple rows")
    p.add_argument("--probe", action="store_true", help="also run the nontriviality probe per row")
    _add_pretty(p)
    p.set_defaults(handler=_cmd_grid)

    return root


def _emit(doc: Dict, pretty: bool) -> None:
    if pretty:
        print(json.dumps(doc, indent=2))
    else:
        print(json.dumps(doc, separators=(",", ":")))


def main(argv: Optional[List[str]] = None) -> int:
    pretty = False
    try:
        args = build_arg_parser().parse_args(argv)
        pretty = args.pretty
        result = args.handler(args)
    except (_UsageError, ParseError, json.JSONDecodeError) as exc:
        _emit({"ok": False, "reason": str(exc)}, pretty)
        return 2
    except (ValueError, ZeroDivisionError, OSError, KeyError) as exc:
        _emit({"ok": False, "reason": str(exc)}, pretty)
        return 1
    except MemoryError:
        _emit({"ok": False, "reason": "out of memory"}, pretty)
        return 1
    _emit({"ok": True, "result": result}, pretty)
    return 0


def entrypoint() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout early.  Point stdout at devnull, so that
        # the flush at interpreter exit cannot fail a second time.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
    sys.exit(code)


if __name__ == "__main__":
    entrypoint()

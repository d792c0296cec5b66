"""Expression front end for the algebra calculators.

Grammar (whitespace between tokens is ignored):

    expr   := term (('+' | '-') term)*
    term   := factor ('*' factor)*
    factor := atom ('^' posint)?
    atom   := int | 'x' index | 'y' index | '(' expr ')' | '[' expr ',' expr ']'

Sums and products are left associative.  Generator indices are read
greedily ("x12" is the generator with index 12); whether an index fits the
configured alphabet is checked at evaluation time, not during parsing.
Juxtaposition is not multiplication: "x1 y2" is a syntax error.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple, Union

from .coeffs import FieldSpec
from .cohn import CohnElement, x_gen as cohn_x, y_gen as cohn_y
from .leavitt import LeavittElement
from .matrix import identity_matrix

__all__ = [
    "ParseError",
    "Expression",
    "IntLit",
    "Gen",
    "BinOp",
    "Power",
    "LieBracket",
    "SessionConfig",
    "parse",
    "print_expression",
    "evaluate",
]


# Deepest expression tree, and deepest nesting of brackets, that `parse`
# accepts.  Parsing takes about four stack frames per nested bracket, and
# evaluating or printing one frame per tree level, so this keeps every walk
# well inside the interpreter's default recursion limit of 1000.
MAX_DEPTH = 200


class ParseError(Exception):
    """Syntax error, carrying the offending position in the input."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


@dataclass(frozen=True)
class IntLit:
    value: int


@dataclass(frozen=True)
class Gen:
    kind: str  # "x" or "y"
    index: int


@dataclass(frozen=True)
class BinOp:
    op: str  # "+", "-" or "*"
    left: "Expression"
    right: "Expression"


@dataclass(frozen=True)
class Power:
    base: "Expression"
    exponent: int


@dataclass(frozen=True)
class LieBracket:
    left: "Expression"
    right: "Expression"


Expression = Union[IntLit, Gen, BinOp, Power, LieBracket]


def _tokenize(text: str) -> List[Tuple[str, object, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        ch = text[pos]
        if ch.isspace():
            pos += 1
            continue
        if ch.isdigit():
            start = pos
            while pos < len(text) and text[pos].isdigit():
                pos += 1
            tokens.append(("int", int(text[start:pos]), start))
            continue
        if ch in "xy":
            start = pos
            pos += 1
            if pos >= len(text) or not text[pos].isdigit():
                raise ParseError(f"generator '{ch}' needs an index", start)
            digits = pos
            while pos < len(text) and text[pos].isdigit():
                pos += 1
            tokens.append(("gen", (ch, int(text[digits:pos])), start))
            continue
        if ch in "+-*^()[],":
            tokens.append((ch, None, pos))
            pos += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", pos)
    return tokens


class _Parser:
    """Recursive descent parser; each rule returns its tree and the tree's depth."""

    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.nesting = 0

    def _peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def _next(self, expected=None):
        tok = self._peek()
        if tok is None:
            msg = "unexpected end of input"
            if expected is not None:
                msg += f", expected {expected!r}"
            raise ParseError(msg, len(self.text))
        if expected is not None and tok[0] != expected:
            raise ParseError(f"expected {expected!r}, got {tok[0]!r}", tok[2])
        self.pos += 1
        return tok

    @staticmethod
    def _deeper(tok, *depths: int) -> int:
        depth = 1 + max(depths)
        if depth > MAX_DEPTH:
            raise ParseError(f"expression nests deeper than {MAX_DEPTH} levels", tok[2])
        return depth

    def parse(self) -> Expression:
        node, _ = self.expr()
        tok = self._peek()
        if tok is not None:
            raise ParseError(f"unexpected trailing {tok[0]!r}", tok[2])
        return node

    def expr(self) -> Tuple[Expression, int]:
        node, depth = self.term()
        while (tok := self._peek()) is not None and tok[0] in ("+", "-"):
            self._next()
            right, right_depth = self.term()
            node, depth = BinOp(tok[0], node, right), self._deeper(tok, depth, right_depth)
        return node, depth

    def term(self) -> Tuple[Expression, int]:
        node, depth = self.factor()
        while (tok := self._peek()) is not None and tok[0] == "*":
            self._next()
            right, right_depth = self.factor()
            node, depth = BinOp("*", node, right), self._deeper(tok, depth, right_depth)
        return node, depth

    def factor(self) -> Tuple[Expression, int]:
        node, depth = self.atom()
        if (tok := self._peek()) is not None and tok[0] == "^":
            self._next()
            exp_tok = self._next("int")
            if exp_tok[1] < 1:
                raise ParseError("exponent must be a positive integer", exp_tok[2])
            node, depth = Power(node, exp_tok[1]), self._deeper(tok, depth)
        return node, depth

    def atom(self) -> Tuple[Expression, int]:
        tok = self._peek()
        if tok is None:
            raise ParseError("unexpected end of input, expected an atom", len(self.text))
        self.pos += 1
        kind = tok[0]
        if kind == "int":
            return IntLit(tok[1]), 1
        if kind == "gen":
            letter, index = tok[1]
            return Gen(letter, index), 1
        if kind not in ("(", "["):
            raise ParseError(f"expected an atom, got {kind!r}", tok[2])
        self.nesting += 1
        if self.nesting > MAX_DEPTH:
            raise ParseError(f"brackets nest deeper than {MAX_DEPTH} levels", tok[2])
        if kind == "(":
            out = self.expr()
            self._next(")")
        else:
            left, left_depth = self.expr()
            self._next(",")
            right, right_depth = self.expr()
            self._next("]")
            out = LieBracket(left, right), self._deeper(tok, left_depth, right_depth)
        self.nesting -= 1
        return out


def parse(text: str) -> Expression:
    return _Parser(text).parse()


_PREC = {"+": 1, "-": 1, "*": 2}
_POWER_PREC = 3
_ATOM_PREC = 4


def _print(node: Expression, min_prec: int) -> str:
    if isinstance(node, IntLit):
        return str(node.value)
    if isinstance(node, Gen):
        return f"{node.kind}{node.index}"
    if isinstance(node, LieBracket):
        return f"[{_print(node.left, 0)}, {_print(node.right, 0)}]"
    if isinstance(node, Power):
        # the grammar only allows atoms as bases, so non-atoms get parens
        text = f"{_print(node.base, _ATOM_PREC)}^{node.exponent}"
        return f"({text})" if _POWER_PREC < min_prec else text
    prec = _PREC[node.op]
    sep = node.op if node.op == "*" else f" {node.op} "
    text = f"{_print(node.left, prec)}{sep}{_print(node.right, prec + 1)}"
    return f"({text})" if prec < min_prec else text


def print_expression(node: Expression) -> str:
    """Canonical text for an expression tree; reparsing gives the same tree."""
    return _print(node, 0)


_MODES = ("cohn", "leavitt", "matrix")


@dataclass(frozen=True)
class SessionConfig:
    """Evaluation context: alphabet size, matrix dimension, field, mode."""

    n: int = 2
    d: int = 1
    characteristic: int = 0
    mode: str = "leavitt"

    def __post_init__(self):
        for name in ("n", "d"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise TypeError(f"{name} must be an int, got {type(value).__name__}: {value!r}")
        if self.n < 2:
            raise ValueError(f"algebra order must be at least 2, got {self.n}")
        if self.d < 1:
            raise ValueError(f"matrix dimension must be at least 1, got {self.d}")
        if self.mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}, got {self.mode!r}")
        FieldSpec(self.characteristic)  # validates primality

    @property
    def spec(self) -> FieldSpec:
        return FieldSpec(self.characteristic)


def evaluate(node: Expression, cfg: SessionConfig):
    """Evaluate an expression in the configured algebra.

    Cohn mode yields a canonical-form Cohn element, Leavitt mode a
    normal-form Leavitt element.  Matrix mode evaluates in the Leavitt
    algebra and embeds the result diagonally into the d x d matrix ring
    (the unital embedding), so scalar identities can be probed at any d.
    """
    spec, n = cfg.spec, cfg.n
    if cfg.mode == "cohn":
        one = CohnElement.one(n, spec)
        gen = {"x": cohn_x, "y": cohn_y}
    else:
        one = LeavittElement.one(n, spec)
        gen = {"x": LeavittElement.x_gen, "y": LeavittElement.y_gen}

    def walk(node: Expression):
        if isinstance(node, IntLit):
            return one * node.value
        if isinstance(node, Gen):
            if not 1 <= node.index <= n:
                raise ValueError(
                    f"generator index {node.index} outside [1, {n}]"
                )
            return gen[node.kind](node.index, n, spec)
        if isinstance(node, BinOp):
            left = walk(node.left)
            right = walk(node.right)
            if node.op == "+":
                return left + right
            if node.op == "-":
                return left - right
            return left * right
        if isinstance(node, Power):
            return walk(node.base) ** node.exponent
        if isinstance(node, LieBracket):
            return walk(node.left).bracket(walk(node.right))
        raise TypeError(f"unknown expression node {node!r}")

    value = walk(node)
    if cfg.mode == "matrix":
        return identity_matrix(value, cfg.d)
    return value

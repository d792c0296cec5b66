"""Expression front end for the algebra calculators.

Grammar (whitespace between tokens is ignored):

    expr   := ('+' | '-')? term (('+' | '-') term)*
    term   := factor ('*' factor)*
    factor := atom ('^' posint)?
    atom   := int | int '/' int | ('x' | 'y') index | ('x' | 'y') '[' index (',' index)* ']'
            | '(' expr ')' | '[' expr ',' expr ']'

It contains the printed form of elements ("-1/2*x[1,2]*y[2] + 1"), whose
tokens it shares with `cohn.parse_element`: a block's tag is directly
followed by '[', "a/b" is one atom, and "-t" is read as "0 - t".  Digits
are ASCII.  Sums and products are left associative.  Generator indices are
read greedily ("x12" is the generator with index 12); whether an index fits
the configured alphabet is checked at evaluation time, not during parsing.
Juxtaposition is not multiplication: "x1 y2" is a syntax error.
"""

from __future__ import annotations

import re
from typing import List, NamedTuple, Tuple, Union

from .coeffs import FieldSpec, _check_shape

__all__ = [
    "ParseError",
    "Expression",
    "IntLit",
    "RatLit",
    "Gen",
    "Block",
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


class IntLit(NamedTuple):
    value: int


class RatLit(NamedTuple):
    num: int
    den: int


class Gen(NamedTuple):
    kind: str  # "x" or "y"
    index: int


class Block(NamedTuple):
    kind: str  # "x" or "y"
    letters: Tuple[int, ...]  # nonempty


class BinOp(NamedTuple):
    op: str  # "+", "-" or "*"
    left: "Expression"
    right: "Expression"


class Power(NamedTuple):
    base: "Expression"
    exponent: int


class LieBracket(NamedTuple):
    left: "Expression"
    right: "Expression"


Expression = Union[IntLit, RatLit, Gen, Block, BinOp, Power, LieBracket]


def _tokenize(text: str) -> List[Tuple[str, object, int]]:
    """The tokens of text as (text, node, position); the node is None for an operator or a bracket."""
    # the element text's tokens come first, so that x[ opens a block; the
    # tokens are imported here, as evaluate imports its algebra
    from .cohn import _TOKENS, _int, _word

    tokens = []
    for m in re.finditer(_TOKENS + r"|([xy])(\[[^\]]*\]?|[0-9]*)|([\^()\[\],])|(\S)", text):
        tag, letters, num, den, op, gen, index, punct, bad = m.groups()
        pos = m.start()
        try:
            if tag:
                node = Block(tag, tuple(_word(tag, letters)))
            elif num:
                node = RatLit(_int(num), _int(den)) if den else IntLit(_int(num))
            elif gen:
                if index[:1] == "[":  # a block that _TOKENS cannot read, up to its first ']'
                    raise ParseError(f"bad generator word in {gen + index!r}", pos)
                if not index:
                    raise ParseError(f"generator {gen!r} needs an index", pos)
                node = Gen(gen, _int(index))
            elif bad:
                raise ParseError(f"unexpected character {bad!r}", pos)
            else:
                node = None
            tokens.append((m[0], node, pos))
        except ValueError as exc:  # a malformed block, or an integer too long to read
            raise ParseError(str(exc), pos) from None
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
        tok = self._peek()  # a leading sign reads +t as 0 + t and -t as 0 - t
        node, depth = (IntLit(0), 1) if tok is not None and tok[0] in ("+", "-") else self.term()
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
            exp_tok = self._next()
            if type(exp_tok[1]) is not IntLit or exp_tok[1].value < 1:
                raise ParseError("exponent must be a positive integer", exp_tok[2])
            node, depth = Power(node, exp_tok[1].value), self._deeper(tok, depth)
        return node, depth

    def atom(self) -> Tuple[Expression, int]:
        tok = self._peek()
        if tok is None:
            raise ParseError("unexpected end of input, expected an atom", len(self.text))
        self.pos += 1
        kind = tok[0]
        if tok[1] is not None:
            return tok[1], 1
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
    if isinstance(node, RatLit):
        return f"{node.num}/{node.den}"
    if isinstance(node, Gen):
        return f"{node.kind}{node.index}"
    if isinstance(node, Block):
        return f"{node.kind}[{','.join(map(str, node.letters))}]"
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


class _SessionFields(NamedTuple):
    n: int = 2
    d: int = 1
    characteristic: int = 0
    mode: str = "leavitt"


class SessionConfig(_SessionFields):
    """Evaluation context: alphabet size, matrix dimension, field, mode; checked when built."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        _check_shape(self.n, self.d)
        if self.mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}, got {self.mode!r}")
        FieldSpec(self.characteristic)  # validates primality
        return self

    @classmethod
    def _make(cls, iterable) -> "SessionConfig":
        """Build through the checks, so that `_replace` checks its result too."""
        return cls(*iterable)

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
    # Each mode imports only the algebra it evaluates in, so that a CLI
    # process loads no module its command does not run.
    from .cohn import Word, x_word, y_word

    if cfg.mode == "cohn":
        from .cohn import CohnElement as Element
    else:
        from .leavitt import LeavittElement as Element
    one = Element.one(n, spec)
    words = {"x": x_word, "y": y_word}

    def walk(node: Expression):
        if isinstance(node, IntLit):
            return one * node.value
        if isinstance(node, RatLit):
            return one * (spec.from_int(node.num) / spec.from_int(node.den))
        if isinstance(node, (Gen, Block)):
            letters = (node.index,) if isinstance(node, Gen) else node.letters
            for i in letters:
                if not 1 <= i <= n:
                    raise ValueError(f"generator index {i} outside [1, {n}]")
            # a word of one tag has no junction, so it is also a Leavitt normal form
            return one._like(words[node.kind](Word(letters, n), spec)._terms)
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
        from .matrix import identity_matrix

        return identity_matrix(value, cfg.d)
    return value

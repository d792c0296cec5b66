import copy
import pickle
import random

import pytest

from leavitt import (
    CohnElement,
    FieldSpec,
    LeavittElement,
    MatrixElement,
    ParseError,
    SessionConfig,
    evaluate,
    ideal_generator,
    parse,
    print_expression,
)
from leavitt.parser import MAX_DEPTH, BinOp, Block, Gen, IntLit, LieBracket, Power, RatLit

Q = FieldSpec(0)


def test_parse_mixed_expression():
    tree = parse("x1*y2 + 3*[x1, x2^2]")
    assert tree == BinOp(
        "+",
        BinOp("*", Gen("x", 1), Gen("y", 2)),
        BinOp("*", IntLit(3), LieBracket(Gen("x", 1), Power(Gen("x", 2), 2))),
    )


def test_parse_bracket():
    assert parse("[x1, x2]") == LieBracket(Gen("x", 1), Gen("x", 2))


def test_juxtaposition_is_a_syntax_error():
    with pytest.raises(ParseError):
        parse("x1 y2")


def test_left_associativity():
    assert parse("1 - 2 - 3") == BinOp("-", BinOp("-", IntLit(1), IntLit(2)), IntLit(3))
    assert parse("x1*x2*x1") == BinOp("*", BinOp("*", Gen("x", 1), Gen("x", 2)), Gen("x", 1))


def test_parentheses_regroup():
    assert parse("1 - (2 - 3)") == BinOp("-", IntLit(1), BinOp("-", IntLit(2), IntLit(3)))


def test_greedy_generator_indices():
    assert parse("x12") == Gen("x", 12)
    assert parse("y2") == Gen("y", 2)


@pytest.mark.parametrize(
    "text, tree",
    [
        ("x[1,2]", Block("x", (1, 2))),
        ("y[ 12 ,3 ]", Block("y", (12, 3))),
        ("1/2", RatLit(1, 2)),
        ("1 / 0", RatLit(1, 0)),  # parses; dividing by zero is an evaluation error
        ("-x1", BinOp("-", IntLit(0), Gen("x", 1))),
        ("+x1", BinOp("+", IntLit(0), Gen("x", 1))),
        ("x1*1/2", BinOp("*", Gen("x", 1), RatLit(1, 2))),
        ("x[1]^2", Power(Block("x", (1,)), 2)),
        ("[-x1, y[2]]", LieBracket(BinOp("-", IntLit(0), Gen("x", 1)), Block("y", (2,)))),
        ("-1/2*x[1,2]*y[2] + 1", BinOp("+", BinOp("-", IntLit(0), BinOp(
            "*", BinOp("*", RatLit(1, 2), Block("x", (1, 2))), Block("y", (2,)))), IntLit(1))),
    ],
)
def test_parse_reads_the_printed_form(text, tree):
    assert parse(text) == tree


@pytest.mark.parametrize(
    "text, position",
    [
        ("x1^4/2", 3),  # an exponent is a positive integer literal
        ("x[1,,2]", 0),
        ("x[]", 0),
        ("x [1]", 0),  # a block's tag is directly followed by '['
        ("x1/2", 2),
        ("2*-x1", 2),  # a sign leads an expression, not a factor
        ("x\u0661", 0),  # digits are ASCII
        ("\u0663", 0),
        ("x[\u0661]", 0),
    ],
)
def test_text_outside_the_grammar_is_a_parse_error(text, position):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert err.value.position == position


def test_parse_errors_carry_positions():
    with pytest.raises(ParseError) as err:
        parse("x1 + @")
    assert err.value.position == 5
    with pytest.raises(ParseError):
        parse("x")  # missing index
    with pytest.raises(ParseError):
        parse("(x1")  # unbalanced
    with pytest.raises(ParseError):
        parse("[x1 x2]")  # missing comma
    with pytest.raises(ParseError):
        parse("x1^0")  # exponent must be positive
    with pytest.raises(ParseError):
        parse("")
    with pytest.raises(ParseError):
        parse("x1^2^3")  # power is not chainable


def _random_tree(rng, depth):
    if depth == 0:
        leaf = rng.random()
        if leaf < 0.3:
            return IntLit(rng.randint(0, 9))
        if leaf < 0.4:
            return RatLit(rng.randint(0, 9), rng.randint(1, 4))
        if leaf < 0.55:
            return Block(rng.choice("xy"), tuple(rng.randint(1, 3) for _ in range(rng.randint(1, 3))))
        return Gen(rng.choice("xy"), rng.randint(1, 3))
    kind = rng.randrange(4)
    if kind == 0:
        return BinOp(rng.choice("+-*"), _random_tree(rng, depth - 1), _random_tree(rng, depth - 1))
    if kind == 1:
        return LieBracket(_random_tree(rng, depth - 1), _random_tree(rng, depth - 1))
    if kind == 2:
        base = Gen(rng.choice("xy"), rng.randint(1, 3)) if rng.random() < 0.5 else _random_tree(rng, depth - 1)
        return Power(base, rng.randint(1, 4))
    return _random_tree(rng, depth - 1)


def test_print_parse_round_trip():
    rng = random.Random(29)
    for _ in range(300):
        tree = _random_tree(rng, 3)
        text = print_expression(tree)
        assert parse(text) == tree, text


def test_round_trip_of_specific_forms():
    for text in ("x1*y2 + 3*[x1, x2^2]", "1 - x1*y1 - x2*y2", "(x1 - y1)^2"):
        tree = parse(text)
        assert parse(print_expression(tree)) == tree


# --- evaluation ---------------------------------------------------------------


def test_evaluate_ideal_generator_in_cohn_mode():
    cfg = SessionConfig(n=2, mode="cohn")
    got = evaluate(parse("1 - x1*y1 - x2*y2"), cfg)
    assert got == ideal_generator(2, Q)


def test_evaluate_ideal_generator_in_leavitt_mode():
    cfg = SessionConfig(n=2, mode="leavitt")
    assert evaluate(parse("1 - x1*y1 - x2*y2"), cfg).is_zero()


def test_evaluate_bracket_sum_in_char_2():
    cfg = SessionConfig(n=3, characteristic=2, mode="leavitt")
    got = evaluate(parse("[y1,x1]+[y2,x2]+[y3,x3]"), cfg)
    assert got.is_zero()


def test_evaluate_is_a_homomorphism():
    rng = random.Random(31)
    cfg = SessionConfig(n=3, characteristic=5, mode="cohn")
    for _ in range(40):
        left = _random_tree(rng, 2)
        right = _random_tree(rng, 2)
        for op, combine in (
            ("+", lambda a, b: a + b),
            ("-", lambda a, b: a - b),
            ("*", lambda a, b: a * b),
        ):
            assert evaluate(BinOp(op, left, right), cfg) == combine(
                evaluate(left, cfg), evaluate(right, cfg)
            )
        assert evaluate(LieBracket(left, right), cfg) == evaluate(left, cfg).bracket(
            evaluate(right, cfg)
        )
        assert evaluate(Power(left, 3), cfg) == evaluate(left, cfg) ** 3


def test_evaluate_modes_produce_matching_types():
    cfg = SessionConfig(n=2, mode="cohn")
    assert isinstance(evaluate(parse("x1"), cfg), CohnElement)
    cfg = SessionConfig(n=2, mode="leavitt")
    assert isinstance(evaluate(parse("x1"), cfg), LeavittElement)
    cfg = SessionConfig(n=2, d=3, mode="matrix")
    got = evaluate(parse("2"), cfg)
    assert isinstance(got, MatrixElement) and got.d == 3


def test_matrix_mode_embeds_diagonally():
    cfg = SessionConfig(n=3, d=2, characteristic=2, mode="matrix")
    got = evaluate(parse("x1*y1"), cfg)
    assert got.entry(0, 0) == got.entry(1, 1)
    assert got.entry(0, 1).is_zero()
    assert got.trace().is_zero()  # two equal diagonal traces cancel mod 2


def test_out_of_range_index_is_an_evaluation_error():
    cfg = SessionConfig(n=2, mode="cohn")
    for text, index in (("x12", 12), ("y[1,3,2]", 3), ("x[0]", 0)):
        tree = parse(text)  # parses fine
        with pytest.raises(ValueError, match=rf"^generator index {index} outside \[1, 2\]$"):
            evaluate(tree, cfg)


def test_evaluate_blocks_and_fractions():
    for p in (0, 2, 5):
        for mode in ("cohn", "leavitt"):
            cfg = SessionConfig(n=3, characteristic=p, mode=mode)
            assert evaluate(parse("x[1,3]*y[2]"), cfg) == evaluate(parse("x1*x3*y2"), cfg)
            assert evaluate(parse("-y[3,3]"), cfg) == evaluate(parse("0 - y3^2"), cfg)
            if p != 2:
                assert evaluate(parse("2*1/2"), cfg) == evaluate(parse("1"), cfg)
    for p, text in ((0, "3/0*x1"), (5, "3/10*x1")):  # b = 0 in the field
        with pytest.raises(ZeroDivisionError, match=f"^division by zero in {FieldSpec(p)}$"):
            evaluate(parse(text), SessionConfig(characteristic=p))


def test_session_config_validation():
    with pytest.raises(ValueError):
        SessionConfig(n=1)
    with pytest.raises(ValueError):
        SessionConfig(d=0)
    with pytest.raises(ValueError):
        SessionConfig(characteristic=4)
    with pytest.raises(ValueError):
        SessionConfig(mode="weird")


def test_session_config_rejects_non_integer_sizes():
    for kwargs, name in (({"n": 2.5}, "float"), ({"d": 1.0}, "float"), ({"n": True}, "bool"),
                         ({"d": "2"}, "str"), ({"characteristic": 2.0}, "float")):
        with pytest.raises(TypeError, match=name):
            SessionConfig(**kwargs)


def test_expression_nodes_are_immutable_values():
    def nodes():
        x1, one = Gen("x", 1), IntLit(1)
        return [one, x1, RatLit(1, 2), Block("x", (1, 2)), BinOp("+", one, x1), Power(x1, 3), LieBracket(x1, one)]

    for i, (a, b) in enumerate(zip(nodes(), nodes())):
        assert a == b and hash(a) == hash(b)
        assert all(a != other for other in nodes()[:i] + nodes()[i + 1:])
        with pytest.raises(AttributeError):
            a.left = b
    assert IntLit(1) != Gen("x", 1)


def test_session_config_is_an_immutable_value():
    cfg = SessionConfig(n=3, d=2, characteristic=5, mode="cohn")
    same = SessionConfig(3, 2, 5, "cohn")
    assert cfg == same and hash(cfg) == hash(same)
    assert cfg != SessionConfig(n=3, d=2, characteristic=5)
    assert SessionConfig() == SessionConfig(2, 1, 0, "leavitt")
    assert cfg.spec is FieldSpec(5)
    assert repr(cfg) == "SessionConfig(n=3, d=2, characteristic=5, mode='cohn')"
    assert copy.copy(cfg) == cfg and pickle.loads(pickle.dumps(cfg)) == cfg
    for field in ("n", "d", "characteristic", "mode"):
        with pytest.raises(AttributeError):
            setattr(cfg, field, 7)
        with pytest.raises(AttributeError):
            delattr(cfg, field)
    assert (cfg.n, cfg.d, cfg.characteristic, cfg.mode) == (3, 2, 5, "cohn")
    # a named tuple: equal to the plain tuple of its fields, and built through
    # the same checks by _make and _replace
    assert cfg == (3, 2, 5, "cohn") and tuple(cfg) == (3, 2, 5, "cohn")
    assert cfg._replace(d=4) == SessionConfig(3, 4, 5, "cohn")
    for build in (lambda: SessionConfig(n=1), lambda: cfg._replace(n=1),
                  lambda: SessionConfig._make((1, 1, 0, "leavitt"))):
        with pytest.raises(ValueError, match="^algebra order must be at least 2, got 1$"):
            build()


@pytest.mark.parametrize(
    "build",
    [
        lambda k: "(" * k + "x1" + ")" * k,  # k nested parentheses
        lambda k: "+".join(["x1"] * k),  # a sum of k terms, k levels deep
        lambda k: "[x1, " * (k - 1) + "x1" + "]" * (k - 1),  # k - 1 nested brackets
    ],
    ids=["parentheses", "sum", "brackets"],
)
def test_depth_bound(build):
    cfg = SessionConfig(n=2, mode="cohn")
    text = build(MAX_DEPTH)
    tree = parse(text)  # at the bound: parses, evaluates and prints
    evaluate(tree, cfg)
    assert parse(print_expression(tree)) == tree
    with pytest.raises(ParseError, match="deeper than"):
        parse(build(MAX_DEPTH + 1))

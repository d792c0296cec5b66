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
from leavitt.parser import MAX_DEPTH, BinOp, Gen, IntLit, LieBracket, Power

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
        if rng.random() < 0.4:
            return IntLit(rng.randint(0, 9))
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
    tree = parse("x12")  # parses fine
    with pytest.raises(ValueError):
        evaluate(tree, cfg)


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

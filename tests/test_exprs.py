"""Expression grammar, evaluation, rendering, and error reporting."""

import random
from fractions import Fraction

import pytest

from onsaw.altpres import Gt, Wm, Wp
from onsaw.exprs import ExprError, eval_expr, parse_expr, render
from onsaw.onsager import A, G
from onsaw.quotient import QuotientO
from onsaw.scalars import lvar


def test_bracket_atom_expression():
    assert eval_expr("[A(1),A(0)]") == G(1, Fraction(4))


def test_paper_labelled_w_atoms():
    got = eval_expr("2*W(-1) - Wp(1)", presentation="alt")
    assert got == Wm(1, Fraction(2)) - Wp(1)
    assert eval_expr("W(1)", presentation="alt") == Wp(0)
    assert eval_expr("Gt(0)", presentation="alt") == Gt(0)


def test_symbolic_coefficient_reduces_in_quotient():
    q = QuotientO.symbolic(1)
    element = eval_expr("alpha*G(1) + G(2)")
    assert q.reduce(element).is_zero()


def test_params_bind_symbols():
    got = eval_expr("alpha*A(0)", params={"alpha": Fraction(3, 2)})
    assert got == A(0) * Fraction(3, 2)


def test_rationals_and_precedence():
    got = eval_expr("1/2*A(0) + 3*A(1) - A(0)")
    assert got == A(0) * Fraction(-1, 2) + A(1) * Fraction(3)
    got = eval_expr("-(A(0) - A(1))")
    assert got == A(1) - A(0)


def test_nested_brackets():
    got = eval_expr("[A(0),[A(0),[A(0),A(1)]]]")
    assert got == G(1, Fraction(-64))


def test_syntax_errors_carry_positions():
    with pytest.raises(ExprError) as err:
        parse_expr("A(1) +")
    assert "column" in str(err.value)
    with pytest.raises(ExprError):
        parse_expr("A(1")
    with pytest.raises(ExprError):
        parse_expr("$")
    with pytest.raises(ExprError):
        parse_expr("[A(0), A(1)")
    with pytest.raises(ExprError):
        parse_expr("1/0")


def test_evaluation_errors():
    with pytest.raises(ExprError):
        eval_expr("A(0)*A(1)")
    with pytest.raises(ExprError):
        eval_expr("A(0) + 1")
    with pytest.raises(ExprError):
        eval_expr("[A(0), 2]")
    with pytest.raises(ExprError):
        eval_expr("Wp(-1)", presentation="alt")
    with pytest.raises(ExprError):
        eval_expr("W(0)")  # alt atom in the onsager presentation


@pytest.mark.parametrize(
    "text, column",
    [("A(0) + 3", 6), ("A(1) * G(2)", 6), ("1 + [A(0), 2]", 5)],
)
def test_evaluation_errors_point_at_the_operator(text, column):
    with pytest.raises(ExprError, match=rf"\(column {column}\)$"):
        eval_expr(text)


def test_scalar_expressions():
    assert eval_expr("2*3 - 1/2") == Fraction(11, 2)
    assert eval_expr("alpha*2") == lvar("alpha") * 2


def _random_expr(rng, depth=0):
    roll = rng.random()
    if depth > 3 or roll < 0.3:
        kind = rng.choice(["A", "G", "W", "Wp", "Gt"])
        lo = 0 if kind in ("Wp", "Gt") else (1 if kind == "G" else -6)
        return f"{kind}({rng.randint(lo, 6)})"
    if roll < 0.45:
        return str(Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
    if roll < 0.6:
        return rng.choice(["alpha", "beta1", "mu"])
    left = _random_expr(rng, depth + 1)
    right = _random_expr(rng, depth + 1)
    op = rng.choice(["+", "-", "*", "[]"])
    if op == "[]":
        return f"[{left}, {right}]"
    return f"({left} {op} {right})"


def test_render_parse_round_trip():
    rng = random.Random(20240811)
    for _ in range(300):
        text = _random_expr(rng)
        try:
            ast = parse_expr(text)
        except ExprError:
            continue
        again = parse_expr(render(ast))
        assert render(again) == render(ast)

"""Expression grammar, evaluation while parsing, and error reporting."""

import random
import sys
from fractions import Fraction

import pytest

from onsaw.altpres import (
    QuotientA,
    Gt,
    Wm,
    Wp,
    bracket_alt,
    convert_to_alt,
    convert_to_ons,
)
from onsaw.elements import AlgElem
from onsaw.exprs import MAX_DEPTH, MAX_POWER_BITS, ExprError, eval_expr
from onsaw.onsager import A, G, bracket
from onsaw.quotient import QuotientO
from onsaw.scalars import lvar


def test_bracket_atom_expression():
    assert eval_expr("[A(1),A(0)]") == G(1, Fraction(4))


def test_paper_labelled_w_atoms():
    got = eval_expr("2*W(-1) - Wp(1)", presentation="alt")
    assert got == Wm(1, Fraction(2)) - Wp(1)
    assert eval_expr("W(1)", presentation="alt") == Wp(0)
    assert eval_expr("Gt(0)", presentation="alt") == Gt(0)
    assert eval_expr("2*Wm(1) + -Wp(0)", presentation="alt") == Wm(1, 2) - Wp(0)


@pytest.mark.parametrize(
    "x", [A(n) for n in range(-6, 7)] + [G(m) for m in range(1, 7)], ids=str
)
def test_printed_alternative_elements_parse_back(x):
    """An element converted to the alternative presentation prints with Wm,
    Wp and Gt atoms; the text parses back in that presentation, and converts
    back to the element."""
    text = str(convert_to_alt(x))
    assert convert_to_ons(eval_expr(text, presentation="alt")) == x


@pytest.mark.parametrize("N", [1, 2, 3])
def test_printed_reductions_parse_back(N):
    """A reduction prints its symbolic coefficients with powers, negative
    ones too in the alternative presentation (it divides by beta_N); the
    printed text parses back to the reduced element in both presentations."""
    q, qa = QuotientO.symbolic(N), QuotientA.symbolic(N)
    onsager = [A(n) for n in range(-2 * N - 2, 2 * N + 3)]
    onsager += [G(m) for m in range(1, 2 * N + 3)]
    alt = [make(k) for make in (Wm, Wp, Gt) for k in range(2 * N + 2)]
    powers = 0
    cases = (("onsager", q.reduce, onsager), ("alt", qa.reduce, alt))
    for presentation, reduce, elements in cases:
        for x in elements:
            reduced = reduce(x)
            text = str(reduced)
            powers += "^" in text
            assert eval_expr(text, presentation) == reduced, text
    assert powers > 0


def test_powers_of_symbols():
    assert eval_expr("alpha^3*A(0)") == A(0) * lvar("alpha", 3)
    assert eval_expr("beta1^-2") == lvar("beta1", -2)
    assert eval_expr("-x^2") == -lvar("x", 2)
    assert eval_expr("x^0") == 1
    bind = {"mu": Fraction(1, 3), "x": lvar("x")}.__getitem__
    got = eval_expr("mu^-2*A(1) + mu^2*A(0)", bind=bind)
    assert got == A(1) * 9 + A(0) * Fraction(1, 9)
    assert eval_expr(f"x^{2**31 - 1}") == lvar("x", 2**31 - 1)


@pytest.mark.parametrize(
    "text, bind, message",
    [
        ("A(1)^2", lvar, "only a symbol takes a power (column 5)"),
        ("(x)^2", lvar, "only a symbol takes a power (column 4)"),
        ("x^2^3", lvar, "only a symbol takes a power (column 4)"),
        ("3^2", lvar, "only a symbol takes a power (column 2)"),
        ("x^", lvar, 'needs an integer exponent (column 2)'),
        ("x^-*A(0)", lvar, 'needs an integer exponent (column 2)'),
        (f"x^{2**31}", lvar, "out of range (|e| < 2**31) (column 2)"),
        (f"x^-{2**31}*A(0)", lvar, "out of range (|e| < 2**31) (column 2)"),
        ("y^-1", {"y": 0}.__getitem__, "not a unit (column 2)"),
        ("y^-1", {"y": lvar("a") + 1}.__getitem__, "not a unit (column 2)"),
        (f"y^{MAX_POWER_BITS // 2 + 1}", {"y": 3}.__getitem__, "bits (column 2)"),
    ],
)
def test_power_faults_are_errors_at_the_caret(text, bind, message):
    with pytest.raises(ExprError) as err:
        eval_expr(text, bind=bind)
    assert str(err.value).endswith(message)


def test_symbolic_coefficient_reduces_in_quotient():
    q = QuotientO.symbolic(1)
    element = eval_expr("alpha*G(1) + G(2)")
    assert q.reduce(element).is_zero()


def test_params_bind_symbols():
    got = eval_expr("alpha*A(0)", bind={"alpha": Fraction(3, 2)}.__getitem__)
    assert got == A(0) * Fraction(3, 2)


def test_bind_reads_exactly_the_free_symbols():
    seen = []

    def bind(name):
        seen.append(name)
        return lvar(name)

    got = eval_expr("alpha*A(0) + [G(1), kappa*A(1)]", bind=bind)
    assert got == eval_expr("alpha*A(0) + [G(1), kappa*A(1)]")
    assert seen == ["alpha", "kappa"]
    seen.clear()
    eval_expr("[W(0), Wp(1)] + Gt(2)", presentation="alt", bind=bind)
    assert seen == []


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
        eval_expr("A(1) +")
    assert "column" in str(err.value)
    with pytest.raises(ExprError):
        eval_expr("A(1")
    with pytest.raises(ExprError):
        eval_expr("$")
    with pytest.raises(ExprError):
        eval_expr("[A(0), A(1)")
    with pytest.raises(ExprError):
        eval_expr("1/0")


def test_the_first_error_in_reading_order_is_reported():
    # The product fails before the parser reaches the missing operand.
    with pytest.raises(ExprError, match=r"no product.*\(column 6\)$"):
        eval_expr("A(0) * A(1) +")
    # A bracket is checked once its "]" is read, so here the syntax error comes
    # first.
    with pytest.raises(ExprError, match=r"^expected '\]', found '' \(column 9\)$"):
        eval_expr("[A(0), 2")


@pytest.fixture
def default_int_digit_limit():
    """The interpreter's default int-string limit, restored afterwards."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(old)


LONG = "9" * 5000


@pytest.mark.parametrize(
    "text, column",
    [
        (f"{LONG}*A(0)", 1),
        (f"A(0) + 2/{LONG}*A(1)", 10),
        (f"A(-{LONG})", 4),
        (f"x^{LONG}*A(0)", 3),
        (f"x^-{LONG}*A(0)", 4),
    ],
    ids=["coefficient", "denominator", "atom index", "exponent", "negative exponent"],
)
def test_a_numeral_past_the_int_string_limit_is_an_error_at_it(
    default_int_digit_limit, text, column
):
    with pytest.raises(ExprError, match=rf"5000 digits is too long \(column {column}\)$"):
        eval_expr(text)


@pytest.mark.parametrize(
    "opening, closing", [("(", ")"), ("[A(0), ", "]"), ("-", "")]
)
def test_nesting_is_bounded(opening, closing):
    text = opening * MAX_DEPTH + "A(1)" + closing * MAX_DEPTH
    assert isinstance(eval_expr(text), AlgElem)
    deeper = opening * (MAX_DEPTH + 1) + "A(1)" + closing * (MAX_DEPTH + 1)
    column = MAX_DEPTH * len(opening) + 1
    with pytest.raises(ExprError, match=rf"nested too deeply \(column {column}\)$"):
        eval_expr(deeper)


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
        eval_expr("Wm(-1)", presentation="alt")
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


# Each generator returns a text and the value it denotes, built through the
# library constructors and operators; "elem" texts denote algebra elements,
# "scalar" texts denote coefficients.  Sums and products are written without
# parentheses, so the values check precedence and left associativity.


def _atom(rng, presentation):
    if presentation == "onsager":
        if rng.random() < 0.5:
            n = rng.randint(-5, 5)
            return f"A({n})", A(n)
        m = rng.randint(1, 5)
        return f"G({m})", G(m)
    kind = rng.choice(["W", "Wm", "Wp", "Gt"])
    if kind == "W":
        n = rng.randint(-4, 4)
        return f"W({n})", Wm(-n) if n <= 0 else Wp(n - 1)
    k = rng.randint(0, 4)
    return f"{kind}({k})", {"Wm": Wm, "Wp": Wp, "Gt": Gt}[kind](k)


_SYMBOLS = {"alpha": lvar("alpha"), "beta1": lvar("beta1"), "mu": Fraction(1, 3)}


def _factor(rng, presentation, kind, depth):
    roll = rng.random()
    if depth < 3 and roll < 0.15:
        text, value = _factor(rng, presentation, kind, depth + 1)
        return "-" + text, -value
    if depth < 3 and roll < 0.3:
        text, value = _expr(rng, presentation, kind, depth + 1)
        return f"({text})", value
    if kind == "scalar":
        if roll < 0.7:
            num, den = rng.randint(0, 12), rng.randint(1, 6)
            if rng.random() < 0.3:
                return str(num), num
            return f"{num}/{den}", Fraction(num, den)
        name = rng.choice(sorted(_SYMBOLS))
        return name, _SYMBOLS[name]
    if depth < 3 and roll < 0.5:
        left, x = _expr(rng, presentation, "elem", depth + 1)
        right, y = _expr(rng, presentation, "elem", depth + 1)
        br = bracket if presentation == "onsager" else bracket_alt
        return f"[{left}, {right}]", br(x, y)
    return _atom(rng, presentation)


def _term(rng, presentation, kind, depth):
    count = rng.randint(1, 3)
    where = rng.randrange(count) if kind == "elem" else -1
    parts = [
        _factor(rng, presentation, "elem" if i == where else "scalar", depth)
        for i in range(count)
    ]
    value = parts[0][1]
    for _, factor in parts[1:]:
        value = value * factor
    return " * ".join(text for text, _ in parts), value


def _expr(rng, presentation, kind, depth=0):
    text, value = _term(rng, presentation, kind, depth)
    for _ in range(rng.randint(0, 2)):
        rhs, term = _term(rng, presentation, kind, depth)
        if rng.random() < 0.5:
            text, value = f"{text} + {rhs}", value + term
        else:
            text, value = f"{text} - {rhs}", value - term
    return text, value


@pytest.mark.parametrize("presentation", ["onsager", "alt"])
def test_random_texts_evaluate_to_the_values_they_were_built_from(presentation):
    rng = random.Random(20240811)
    for _ in range(300):
        text, expected = _expr(rng, presentation, "elem")
        assert eval_expr(text, presentation, _SYMBOLS.__getitem__) == expected, text

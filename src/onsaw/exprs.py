"""A small expression language for algebra elements.

Grammar:

    expr     := term (("+" | "-") term)*
    term     := factor ("*" factor)*
    factor   := rational | symbol | symbol "^" ["-"] integer | atom
              | "-" factor | "[" expr "," expr "]" | "(" expr ")"
    atom     := ("A" | "G" | "W" | "Wm" | "Wp" | "Gt") "(" integer ")"
    rational := integer ("/" positive-integer)?
    symbol   := identifier   (its value is read through `bind`)

An integer is ASCII digits; an identifier starts with a letter or "_" and
goes on with letters, digits or "_".  Any other character outside spaces is
an `ExprError` at its column.  Only a symbol takes a power, so polynomial
coefficients print in a form that parses back, as in `(beta0^2*beta1^-2)*Wm(0)`;
a negative power needs a unit (a nonzero rational or a monomial), |e| stays
below 2**31, and a rational power has at most MAX_POWER_BITS bits in its
numerator or denominator, so no input builds a huge integer.  Each of these
faults, and a "^" after anything but a symbol, is an `ExprError` at the "^".
A numeral longer than the interpreter's limit on int-string conversion
(`sys.set_int_max_str_digits`, 4,300 digits by default) is an `ExprError` at
the numeral.

Atoms use paper-style labels: A(n) and G(m) are the Onsager basis, W(n) is
the alternative family with its printed integer label (n <= 0 lowering,
n >= 1 raising), while Wm(k), Wp(k) and Gt(k) address the lowering, raising
and Gt families by machine index k >= 0, as elements print.

The parser evaluates as it reads: each rule returns the `AlgElem` or the
scalar that it denotes, and no syntax tree is built.  An error is raised at
the first fault in reading order, syntax or evaluation alike; an evaluation
error points at its operator or "[".  Nesting through "(", "[" and unary "-"
is bounded by MAX_DEPTH levels, so a deep input is an `ExprError` and never
exhausts the interpreter's stack.
"""

import re
from fractions import Fraction

from .altpres import Gt, Wm, Wp, _w_paper, bracket_alt
from .elements import AlgElem
from .onsager import A, G, bracket
from .reports import InputError
from .scalars import _EXP_BOUND, LaurentPoly, as_coeff, lvar, unit_inverse

# The atoms of each presentation: name -> library constructor of one index.
_ATOMS = {"onsager": {"A": A, "G": G}, "alt": {"W": _w_paper, "Wm": Wm, "Wp": Wp, "Gt": Gt}}

MAX_DEPTH = 100
MAX_POWER_BITS = 1 << 16


class ExprError(InputError):
    """Syntax or evaluation error, carrying a character position."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (column {pos + 1})")
        self.pos = pos


# --- lexer -------------------------------------------------------------------

# One token after optional space: an ASCII integer, a word, a punctuation
# mark or any other character.  A word is a name only if it starts with a
# letter or "_", since `\w` also holds digits such as "²" and "٣".
_TOKEN = re.compile(
    r"\s*(?:(?P<int>[0-9]+)|(?P<name>\w+)|(?P<punct>[-+*/^\[\](),])|(\S))"
)


def _tokens(text: str):
    out = []
    for match in _TOKEN.finditer(text):
        kind, value = match.lastgroup, match[match.lastindex]
        pos, start = match.start(match.lastindex), value[0]
        if kind is None or kind == "name" and not (start.isalpha() or start == "_"):
            raise ExprError(f"unexpected character {start!r}", pos)
        out.append((value if kind == "punct" else kind, value, pos))
    out.append(("end", "", len(text)))
    return out


class _Parser:
    def __init__(self, text: str, presentation: str, bind):
        self.tokens = _tokens(text)
        self.i = 0
        self.depth = 0
        self.presentation = presentation
        self.bind = bind
        self.bracket = bracket if presentation == "onsager" else bracket_alt

    def peek(self):
        return self.tokens[self.i]

    def take(self, kind=None):
        tok = self.tokens[self.i]
        if kind is not None and tok[0] != kind:
            raise ExprError(f"expected {kind!r}, found {tok[1]!r}", tok[2])
        self.i += 1
        return tok

    def parse(self):
        value = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise ExprError(f"trailing input {tok[1]!r}", tok[2])
        return value

    def expr(self):
        value = self.term()
        while self.peek()[0] in ("+", "-"):
            op, _, pos = self.take()
            rhs = self.term()
            if isinstance(value, AlgElem) != isinstance(rhs, AlgElem):
                raise ExprError("cannot add a scalar to an algebra element", pos)
            value = value + rhs if op == "+" else value - rhs
        return value

    def term(self):
        value = self.factor()
        while self.peek()[0] == "*":
            pos = self.take()[2]
            rhs = self.factor()
            if isinstance(value, AlgElem) and isinstance(rhs, AlgElem):
                raise ExprError("algebra elements have no product; use [x, y]", pos)
            value = rhs * value if isinstance(rhs, AlgElem) else value * rhs
        return value

    def factor(self):
        value = self.operand()
        tok = self.peek()
        if tok[0] == "^":
            raise ExprError("only a symbol takes a power", tok[2])
        return value

    def operand(self):
        kind, value, pos = self.peek()
        if kind == "int":
            return self.rational()
        self.take()
        if kind == "name":
            if self.peek()[0] == "(" and any(value in t for t in _ATOMS.values()):
                self.take("(")
                index = self.integer()
                self.take(")")
                return self.atom(value, index, pos)
            if self.peek()[0] == "^":
                return self.power(self.bind(value))
            return self.bind(value)
        if kind not in ("-", "[", "("):
            raise ExprError(f"unexpected token {value!r}", pos)
        self.depth += 1
        if self.depth > MAX_DEPTH:
            raise ExprError("expression nested too deeply", pos)
        if kind == "-":
            out = -self.factor()
        elif kind == "(":
            out = self.expr()
            self.take(")")
        else:
            left = self.expr()
            self.take(",")
            right = self.expr()
            self.take("]")
            if not (isinstance(left, AlgElem) and isinstance(right, AlgElem)):
                raise ExprError("bracket arguments must be algebra elements", pos)
            out = self.bracket(left, right)
        self.depth -= 1
        return out

    def numeral(self) -> int:
        _, digits, pos = self.take("int")
        try:
            return int(digits)
        except ValueError:  # longer than the int-string limit
            raise ExprError(f"numeral of {len(digits)} digits is too long", pos) from None

    def integer(self):
        sign = 1
        if self.peek()[0] == "-":
            self.take()
            sign = -1
        return sign * self.numeral()

    def power(self, base):
        """base ^ ["-"] integer, for the value `base` of a symbol; every
        fault is an ExprError at the "^"."""
        pos = self.take()[2]
        ahead = [tok[0] for tok in self.tokens[self.i : self.i + 2]]
        if ahead[0] != "int" and ahead != ["-", "int"]:
            raise ExprError('"^" needs an integer exponent', pos)
        exp = self.integer()
        if abs(exp) >= _EXP_BOUND:
            raise ExprError(f"exponent {exp} out of range (|e| < 2**31)", pos)
        if exp < 0:
            inverse = unit_inverse(base)
            if inverse is None:
                raise ExprError(f"negative power of {base}, which is not a unit", pos)
            base, exp = inverse, -exp
        if not isinstance(base, LaurentPoly):
            q = Fraction(base)
            bits = max(q.numerator.bit_length(), q.denominator.bit_length())
            if exp * bits > MAX_POWER_BITS:
                raise ExprError(f"power {exp} has more than {MAX_POWER_BITS} bits", pos)
        try:
            return base**exp
        except ValueError as exc:
            raise ExprError(str(exc), pos) from None

    def rational(self):
        """The next numeral, over a denominator if "/" follows: an int when
        integral, else a Fraction."""
        num = self.numeral()
        if self.peek()[0] != "/":
            return num
        self.take()
        pos = self.peek()[2]
        den = self.numeral()
        if den == 0:
            raise ExprError("zero denominator", pos)
        return as_coeff(Fraction(num, den))

    def atom(self, kind: str, index: int, pos: int) -> AlgElem:
        make = _ATOMS[self.presentation].get(kind)
        if make is None:
            raise ExprError(
                f"atom {kind}({index}) does not belong to the"
                f" {self.presentation} presentation",
                pos,
            )
        try:
            return make(index)
        except InputError as exc:
            raise ExprError(str(exc), pos) from None


def eval_expr(text: str, presentation: str = "onsager", bind=lvar):
    """Evaluate `text` to an AlgElem or a scalar coefficient.

    Each free symbol takes the value `bind(name)`; the default `lvar` leaves
    it symbolic.  Atom names such as the `A` of `A(0)` are never bound.
    """
    return _Parser(text, presentation, bind).parse()

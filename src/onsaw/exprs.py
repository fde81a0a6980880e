"""A small expression language for algebra elements.

Grammar:

    expr     := term (("+" | "-") term)*
    term     := factor ("*" factor)*
    factor   := rational | symbol | atom | "[" expr "," expr "]" | "(" expr ")"
    atom     := ("A" | "G" | "W" | "Wp" | "Gt") "(" integer ")"
    rational := integer ("/" positive-integer)?
    symbol   := identifier   (bound through parameters or left symbolic)

Atoms use paper-style labels: A(n) and G(m) are the Onsager basis, W(n) is
the alternative family with its printed integer label (n <= 0 lowering,
n >= 1 raising), while Wp(k) and Gt(k) address the raising family and the
Gt family by machine index k >= 0.
"""

from dataclasses import dataclass
from fractions import Fraction

from .altpres import Gt, Wm, Wp, bracket_alt
from .elements import AlgElem
from .onsager import A, G, bracket
from .scalars import lvar

_ATOMS = ("A", "G", "W", "Wp", "Gt")
_ONSAGER_ATOMS = {"A", "G"}
_ALT_ATOMS = {"W", "Wp", "Gt"}


class ExprError(ValueError):
    """Syntax or evaluation error, carrying a character position."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (column {pos + 1})")
        self.pos = pos


# Every node carries the 0-based position of its first token (a leaf) or of
# its operator or "[" (an inner node), so evaluation errors point at it.


@dataclass
class Atom:
    kind: str
    index: int
    pos: int


@dataclass
class Rational:
    value: Fraction
    pos: int


@dataclass
class Symbol:
    name: str
    pos: int


@dataclass
class Add:
    left: object
    right: object
    pos: int


@dataclass
class Sub:
    left: object
    right: object
    pos: int


@dataclass
class Mul:
    left: object
    right: object
    pos: int


@dataclass
class BracketNode:
    left: object
    right: object
    pos: int


# --- lexer -------------------------------------------------------------------

_PUNCT = set("+-*/[](),")


def _tokens(text: str):
    out = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _PUNCT:
            out.append((ch, ch, i))
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            out.append(("int", text[i:j], i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            out.append(("name", text[i:j], i))
            i = j
            continue
        raise ExprError(f"unexpected character {ch!r}", i)
    out.append(("end", "", len(text)))
    return out


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokens(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def take(self, kind=None):
        tok = self.tokens[self.i]
        if kind is not None and tok[0] != kind:
            raise ExprError(f"expected {kind!r}, found {tok[1]!r}", tok[2])
        self.i += 1
        return tok

    def parse(self):
        node = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise ExprError(f"trailing input {tok[1]!r}", tok[2])
        return node

    def expr(self):
        node = self.term()
        while self.peek()[0] in ("+", "-"):
            op, _, pos = self.take()
            rhs = self.term()
            node = (Add if op == "+" else Sub)(node, rhs, pos)
        return node

    def term(self):
        node = self.factor()
        while self.peek()[0] == "*":
            pos = self.take()[2]
            node = Mul(node, self.factor(), pos)
        return node

    def factor(self):
        kind, value, pos = self.peek()
        if kind == "int":
            return self.rational()
        if kind == "-":
            self.take()
            if self.peek()[0] == "int":
                literal = self.rational()
                return Rational(-literal.value, pos)
            return Mul(Rational(Fraction(-1), pos), self.factor(), pos)
        if kind == "[":
            self.take()
            left = self.expr()
            self.take(",")
            right = self.expr()
            self.take("]")
            return BracketNode(left, right, pos)
        if kind == "(":
            self.take()
            node = self.expr()
            self.take(")")
            return node
        if kind == "name":
            self.take()
            if value in _ATOMS and self.peek()[0] == "(":
                self.take("(")
                index = self.integer()
                self.take(")")
                return Atom(value, index, pos)
            return Symbol(value, pos)
        raise ExprError(f"unexpected token {value!r}", pos)

    def integer(self):
        sign = 1
        if self.peek()[0] == "-":
            self.take()
            sign = -1
        tok = self.take("int")
        return sign * int(tok[1])

    def rational(self):
        tok = self.take("int")
        value = Fraction(int(tok[1]))
        if self.peek()[0] == "/":
            self.take()
            den = self.take("int")
            if int(den[1]) == 0:
                raise ExprError("zero denominator", den[2])
            value /= int(den[1])
        return Rational(value, tok[2])


def parse_expr(text: str):
    return _Parser(text).parse()


# --- rendering / evaluation -----------------------------------------------------


def render(node) -> str:
    if isinstance(node, Atom):
        return f"{node.kind}({node.index})"
    if isinstance(node, Rational):
        return str(node.value)
    if isinstance(node, Symbol):
        return node.name
    if isinstance(node, Add):
        return f"({render(node.left)} + {render(node.right)})"
    if isinstance(node, Sub):
        return f"({render(node.left)} - {render(node.right)})"
    if isinstance(node, Mul):
        return f"({render(node.left)} * {render(node.right)})"
    if isinstance(node, BracketNode):
        return f"[{render(node.left)}, {render(node.right)}]"
    raise TypeError(f"not an expression node: {node!r}")


def _atom_elem(node: Atom, presentation: str) -> AlgElem:
    family = _ONSAGER_ATOMS if presentation == "onsager" else _ALT_ATOMS
    if node.kind not in family:
        raise ExprError(
            f"atom {node.kind}({node.index}) does not belong to the"
            f" {presentation} presentation",
            node.pos,
        )
    if node.kind == "A":
        return A(node.index)
    if node.kind == "G":
        return G(node.index)
    if node.kind == "W":
        return Wm(-node.index) if node.index <= 0 else Wp(node.index - 1)
    try:
        return Wp(node.index) if node.kind == "Wp" else Gt(node.index)
    except ValueError as exc:
        raise ExprError(str(exc), node.pos) from None


def evaluate(node, presentation: str = "onsager", params: dict | None = None):
    """Evaluate an AST to an AlgElem or a scalar coefficient.

    Unbound symbols stay symbolic; `params` maps names to exact rationals.
    """
    params = params or {}
    br = bracket if presentation == "onsager" else bracket_alt

    def walk(n):
        if isinstance(n, Atom):
            return _atom_elem(n, presentation)
        if isinstance(n, Rational):
            return n.value
        if isinstance(n, Symbol):
            return params.get(n.name, lvar(n.name))
        if isinstance(n, (Add, Sub)):
            left, right = walk(n.left), walk(n.right)
            if isinstance(left, AlgElem) != isinstance(right, AlgElem):
                raise ExprError("cannot add a scalar to an algebra element", n.pos)
            return left + right if isinstance(n, Add) else left - right
        if isinstance(n, Mul):
            left, right = walk(n.left), walk(n.right)
            if isinstance(left, AlgElem) and isinstance(right, AlgElem):
                raise ExprError("algebra elements have no product; use [x, y]", n.pos)
            if isinstance(right, AlgElem):
                return right * left
            return left * right
        if isinstance(n, BracketNode):
            left, right = walk(n.left), walk(n.right)
            if not (isinstance(left, AlgElem) and isinstance(right, AlgElem)):
                raise ExprError("bracket arguments must be algebra elements", n.pos)
            return br(left, right)
        raise TypeError(f"not an expression node: {n!r}")

    return walk(node)


def eval_expr(text: str, presentation: str = "onsager", params: dict | None = None):
    return evaluate(parse_expr(text), presentation, params)

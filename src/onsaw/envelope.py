"""PBW normal ordering in the enveloping algebras of the finite quotients.

Words are tuples of normal-form basis symbols; a word is normal iff it is
nondecreasing in the basis order (A's by index, then G's by index, which is
the natural order on the symbol tuples).  `PBW.normalize_word` rewrites each
out-of-order adjacent pair x_b x_a (b > a) into x_a x_b + [x_b, x_a] with the
bracket computed in the quotient, so the rewriting terminates by the
(word length, inversion count) measure and lands in a unique normal form.
`PBW.normalize` is its linear extension, so a product or a commutator is
formed as a map from words to coefficients and normal-ordered in one pass.
`PBW.multiply`, the same normal ordering of the concatenated words, has no
caller in the library; `benchmarks/layers.py` times it by name.

On top of the normal ordering sit the quartic-relation checks and the
three-generator presentation fit of the N = 1 quotient.
"""

from fractions import Fraction

from .elements import AlgElem, SparseCombination, accumulate, linear_extension
from .onsager import A, bracket
from .quotient import QuotientO
from .reports import InputError, Report
from .scalars import RatFunc, coeff_div, lvar


class EnvElem(SparseCombination):
    """Sparse combination of PBW words; the empty word is the unit."""

    __slots__ = ()

    @classmethod
    def from_alg(cls, x: AlgElem) -> "EnvElem":
        return cls({(sym,): c for sym, c in x.terms.items()})

    def __add__(self, other):
        if not isinstance(other, EnvElem):
            return NotImplemented
        return EnvElem(accumulate(dict(self.terms), other.terms, None))

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for word, coeff in sorted(self.terms.items()):
            name = "*".join(f"{s[0]}({s[1]})" for s in word) or "1"
            parts.append(f"({coeff})*{name}")
        return " + ".join(parts)

    def __repr__(self):
        return f"EnvElem({self})"


class PBW:
    """Normal-ordering context for the enveloping algebra of one quotient."""

    def __init__(self, q: QuotientO, strategy: str = "first"):
        if strategy not in ("first", "last"):
            raise ValueError("strategy must be 'first' or 'last'")
        self.q = q
        self.strategy = strategy
        self._normal: dict = {}
        window = set(q.basis_syms())
        self._window = window

    def _check_word(self, word):
        for sym in word:
            if sym not in self._window:
                raise ValueError(f"symbol {sym} outside the normal-form basis")

    def normalize_word(self, word: tuple) -> EnvElem:
        word = tuple(word)
        cached = self._normal.get(word)
        if cached is not None:
            return cached
        self._check_word(word)
        pos = None
        indices = range(len(word) - 1)
        if self.strategy == "last":
            indices = reversed(indices)
        for i in indices:
            if word[i] > word[i + 1]:
                pos = i
                break
        if pos is None:
            out = EnvElem({word: 1})
        else:
            swapped = word[:pos] + (word[pos + 1], word[pos]) + word[pos + 2 :]
            # The cached normal form of the swapped word is shared: copy it.
            out = dict(self.normalize_word(swapped).terms)
            lie = self.q.bracket_reduced(
                AlgElem.basis(word[pos]), AlgElem.basis(word[pos + 1])
            )
            for sym, c in lie.terms.items():
                inserted = word[:pos] + (sym,) + word[pos + 2 :]
                accumulate(out, self.normalize_word(inserted).terms, c)
            out = EnvElem(out)
        self._normal[word] = out
        return out

    def normalize(self, x: EnvElem) -> EnvElem:
        return linear_extension(self.normalize_word, x)

    def multiply(self, x: EnvElem, y: EnvElem) -> EnvElem:
        out = {}
        for w1, c1 in x.terms.items():
            for w2, c2 in y.terms.items():
                accumulate(out, self.normalize_word(w1 + w2).terms, c1 * c2)
        return EnvElem(out)


# --- quartic presentations ----------------------------------------------------


def verify_quartic(q: QuotientO) -> Report:
    """The two-generator presentations of the N = 1 and N = 2 quotients.

    N = 1: the cubic pair [x,[x,y]] = 8 alpha x + 16 y and the quartic
    relation equivalent to alpha G_1 + G_2 = 0, the latter normal-ordered in
    the enveloping algebra.  N = 2: the quintic bracket pair.
    """
    report = Report()
    a0, a1 = A(0), A(1)
    br = q.bracket_reduced
    if q.N == 1:
        alpha = q.alphas[0]
        for name, x, y in (("quartic:cubic:01", a0, a1), ("quartic:cubic:10", a1, a0)):
            report.add(name, br(x, bracket(x, y)) - x * (8 * alpha) - y * 16)
        s0, s1 = ("A", 0), ("A", 1)
        relation = EnvElem(
            {
                (s1, s0): 8 * alpha,
                (s0, s1): -8 * alpha,
                (s1, s0, s1, s0): 2,
                (s0, s1, s0, s1): -2,
                (s1, s1, s0, s0): -1,
                (s0, s0, s1, s1): 1,
            }
        )
        report.add("quartic:env-order4", PBW(q).normalize(relation))
    elif q.N == 2:
        alphap, alpha = q.alphas[0], q.alphas[1]
        for name, x, y in (("quartic:quintic:01", a0, a1), ("quartic:quintic:10", a1, a0)):
            nest = bracket(x, bracket(y, bracket(x, bracket(y, x))))
            residual = (
                q.reduce(nest)
                - br(y, bracket(y, x)) * 16
                - br(x, bracket(x, y)) * (8 * alpha)
                + x * (64 * (alphap + 2))
                + y * (128 * alpha)
            )
            report.add(name, residual)
    else:
        raise InputError("quartic presentations are stated for N = 1 and N = 2")
    return report


def pbw_lie_compat_report(q: QuotientO) -> Report:
    """x y - y x in the enveloping algebra equals the reduced bracket."""
    report = Report()
    env = PBW(q)
    syms = q.basis_syms()
    bad = []
    for s in syms:
        for t in syms:
            lhs = env.normalize(EnvElem({(s, t): 1}) - EnvElem({(t, s): 1}))
            rhs = EnvElem.from_alg(
                q.bracket_reduced(AlgElem.basis(s), AlgElem.basis(t))
            )
            if lhs != rhs:
                bad.append((s, t))
    report.add("pbw-lie:all-pairs", bad and f"failing pairs {bad[:4]}")
    return report


# --- the three-generator fit ------------------------------------------------------


def aw3_fit(a0=None, a1=None, b0=None, b1=None):
    """Solve the structure constants of the three-generator presentation.

    With K0 = a0 A0 + b0, K1 = a1 A1 + b1 and K2 = [K0, K1] (forced by the
    first defining relation at the classical point), the remaining two
    relations

        [K2, K0] = B K0 + C1 K1 + D1
        [K1, K2] = B K1 + C0 K0 + D0

    are brackets in the quotient's Lie algebra, because b0 and b1 are
    central: K2 = [a0 A0, a1 A1], and both left sides are combinations of A0
    and A1.  B, C0 and C1 are read off those coefficients, dividing only by
    a0 and a1, and the constant terms give D1 = -B b0 - C1 b1 and
    D0 = -B b1 - C0 b0.  a0 and a1 must be units of the Laurent ring
    (nonzero rationals or monomials, as `QuotientA` requires of beta_N;
    anything else raises ValueError), so every constant is a LaurentPoly.
    Returns (constants, report); the report records the consistency of the
    two B values, structural facts about the solution, and the comparison
    against the printed reference constants (the only `RatFunc`s built
    here), whose disagreements are recorded as discrepancies.
    """
    a0 = lvar("a0") if a0 is None else a0
    a1 = lvar("a1") if a1 is None else a1
    b0 = lvar("b0") if b0 is None else b0
    b1 = lvar("b1") if b1 is None else b1
    q = QuotientO.symbolic(1)
    alpha = q.alphas[0]
    k0, k1 = A(0) * a0, A(1) * a1  # K0 and K1 less their central constants
    k2 = q.bracket_reduced(k0, k1)

    report = Report()
    lhs1 = q.bracket_reduced(k2, k0)
    B = coeff_div(lhs1.coeff(("A", 0)), a0)
    C1 = coeff_div(lhs1.coeff(("A", 1)), a1)
    lhs2 = q.bracket_reduced(k1, k2)
    B_other = coeff_div(lhs2.coeff(("A", 1)), a1)
    C0 = coeff_div(lhs2.coeff(("A", 0)), a0)
    report.add(
        "aw3-fit:B-consistent",
        B != B_other and f"B from relation 2 is {B} but from relation 3 is {B_other}",
    )

    constants = {
        "B": B,
        "C0": C0,
        "C1": C1,
        "D0": -B * b1 - C0 * b0,
        "D1": -B * b0 - C1 * b1,
    }
    report.add("aw3-fit:relation2-solved", lhs1 - k0 * B - k1 * C1)
    report.add("aw3-fit:relation3-solved", lhs2 - k1 * B - k0 * C0)

    reference = {
        "K2": RatFunc(a0 * a1 * Fraction(-1, 4)),
        "B": RatFunc(-8 * alpha, a0 * a1),
        "C0": RatFunc(-16, a0 * a0),
        "C1": RatFunc(-16, a1 * a1),
        "D0": RatFunc(-(8 * alpha * b0 + 16 * b1), a0 * a0 * a1),
        "D1": RatFunc(-(8 * alpha * b1 + 16 * b0), a1 * a1 * a0),
    }
    fitted_k2 = k2.coeff(("G", 1))
    report.add_discrepancy(
        "aw3-fit:vs-reference:K2",
        reference["K2"] != fitted_k2
        and f"[K0,K1] carries {fitted_k2}*G(1) but the reference displays "
        f"{reference['K2']}*G(1)",
    )
    for name in ("B", "C0", "C1", "D0", "D1"):
        report.add_discrepancy(
            f"aw3-fit:vs-reference:{name}",
            reference[name] != constants[name]
            and f"fitted {name} = {constants[name]} but reference {name} = "
            f"{reference[name]}",
        )
    return constants, report

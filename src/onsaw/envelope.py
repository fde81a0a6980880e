"""PBW normal ordering in the enveloping algebras of the finite quotients.

Words are tuples of normal-form basis symbols; a word is normal iff it is
nondecreasing in the basis order (A's by index, then G's by index, which is
the natural order on the symbol tuples).  Multiplication rewrites each
out-of-order adjacent pair x_b x_a (b > a) into x_a x_b + [x_b, x_a] with the
bracket computed in the quotient, so the rewriting terminates by the
(word length, inversion count) measure and lands in a unique normal form.

On top of the normal ordering sit the quartic-relation checks and the
three-generator presentation fit of the N = 1 quotient.
"""

from fractions import Fraction

from .elements import AlgElem, SparseCombination, accumulate, linear_extension
from .onsager import A, bracket
from .quotient import QuotientO
from .reports import Report
from .scalars import as_ratfunc, lvar, ratfunc_equal


class EnvElem(SparseCombination):
    """Sparse combination of PBW words; the empty word is the unit."""

    __slots__ = ()

    @classmethod
    def unit(cls, coeff=1) -> "EnvElem":
        return cls({(): coeff})

    @classmethod
    def from_alg(cls, x: AlgElem, const=0) -> "EnvElem":
        terms = {(sym,): c for sym, c in x.terms.items()}
        if const:
            terms[()] = const
        return cls(terms)

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

    def product(self, *factors) -> EnvElem:
        out = EnvElem.unit()
        for f in factors:
            if isinstance(f, AlgElem):
                f = EnvElem.from_alg(f)
            out = self.multiply(out, f)
        return out

    def commutator(self, x: EnvElem, y: EnvElem) -> EnvElem:
        return self.multiply(x, y) - self.multiply(y, x)


def pbw_normalize(expr: EnvElem, q: QuotientO) -> EnvElem:
    return PBW(q).normalize(expr)


# --- quartic presentations ----------------------------------------------------


def verify_quartic(q: QuotientO) -> Report:
    """The two-generator presentations of the N = 1 and N = 2 quotients.

    N = 1: the cubic pair [x,[x,y]] = 8 alpha x + 16 y and the quartic
    relation equivalent to alpha G_1 + G_2 = 0, the latter normal-ordered in
    the enveloping algebra.  N = 2: the quintic bracket pair.
    """
    report = Report("quartic", params={"N": q.N})
    a0, a1 = A(0), A(1)
    br = q.bracket_reduced
    if q.N == 1:
        alpha = q.alphas[0]
        for name, x, y in (("quartic:cubic:01", a0, a1), ("quartic:cubic:10", a1, a0)):
            residual = br(x, bracket(x, y)) - x * (8 * alpha) - y * 16
            report.add(name, residual.is_zero(), residual)
        env = PBW(q)
        ea0 = EnvElem.from_alg(a0)
        ea1 = EnvElem.from_alg(a1)
        lhs = env.commutator(ea1, ea0).scale(8 * alpha)
        lhs = lhs + (
            env.product(a1, a0, a1, a0) - env.product(a0, a1, a0, a1)
        ).scale(2)
        lhs = lhs - env.product(a1, a1, a0, a0) + env.product(a0, a0, a1, a1)
        report.add("quartic:env-order4", lhs.is_zero(), lhs)
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
            report.add(name, residual.is_zero(), residual)
    else:
        raise ValueError("quartic presentations are stated for N = 1 and N = 2")
    return report


def pbw_lie_compat_report(q: QuotientO) -> Report:
    """x y - y x in the enveloping algebra equals the reduced bracket."""
    report = Report("pbw-lie", params={"N": q.N})
    env = PBW(q)
    syms = q.basis_syms()
    bad = []
    for s in syms:
        for t in syms:
            x, y = AlgElem.basis(s), AlgElem.basis(t)
            lhs = env.commutator(EnvElem.from_alg(x), EnvElem.from_alg(y))
            rhs = EnvElem.from_alg(q.bracket_reduced(x, y))
            if lhs != rhs:
                bad.append((s, t))
    report.add("pbw-lie:all-pairs", not bad, f"failing pairs {bad[:4]}")
    return report


# --- the three-generator fit ------------------------------------------------------


def aw3_fit(a0=None, a1=None, b0=None, b1=None):
    """Solve the structure constants of the three-generator presentation.

    With K0 = a0 A0 + b0, K1 = a1 A1 + b1 and K2 = [K0, K1] (forced by the
    first defining relation at the classical point), the remaining two
    relations

        [K2, K0] = B K0 + C1 K1 + D1
        [K1, K2] = B K1 + C0 K0 + D0

    are affine in A0, A1, 1 after reduction, so the constants follow from a
    linear solve.  Returns (constants, report); the report records the
    consistency of the two B values, structural facts about the solution, and
    the comparison against the reference constant list, whose disagreements
    are recorded as discrepancies.
    """
    a0 = lvar("a0") if a0 is None else a0
    a1 = lvar("a1") if a1 is None else a1
    b0 = lvar("b0") if b0 is None else b0
    b1 = lvar("b1") if b1 is None else b1
    q = QuotientO.symbolic(1)
    alpha = q.alphas[0]
    env = PBW(q)
    k0 = EnvElem.from_alg(A(0) * a0, const=b0)
    k1 = EnvElem.from_alg(A(1) * a1, const=b1)
    k2 = env.commutator(k0, k1)

    def affine_parts(e: EnvElem):
        extra = set(e.terms) - {(), (("A", 0),), (("A", 1),)}
        if extra:
            raise ValueError(f"element is not affine in A0, A1: extra words {extra}")
        return e.coeff([("A", 0)]), e.coeff([("A", 1)]), e.coeff([])

    report = Report("aw3-fit")
    lhs1 = env.commutator(k2, k0)
    ca0, ca1, cu = affine_parts(lhs1)
    B = as_ratfunc(ca0) / as_ratfunc(a0)
    C1 = as_ratfunc(ca1) / as_ratfunc(a1)
    D1 = as_ratfunc(cu) - B * b0 - C1 * b1

    lhs2 = env.commutator(k1, k2)
    da0, da1, du = affine_parts(lhs2)
    B_other = as_ratfunc(da1) / as_ratfunc(a1)
    C0 = as_ratfunc(da0) / as_ratfunc(a0)
    D0 = as_ratfunc(du) - B_other * b1 - C0 * b0
    report.add(
        "aw3-fit:B-consistent",
        ratfunc_equal(B, B_other),
        f"B from relation 2 is {B} but from relation 3 is {B_other}",
    )

    constants = {"B": B, "C0": C0, "C1": C1, "D0": D0, "D1": D1}

    residual1 = (
        lhs1
        - k0.scale(B)
        - k1.scale(C1)
        - EnvElem.unit().scale(D1)
    )
    residual2 = (
        lhs2
        - k1.scale(B)
        - k0.scale(C0)
        - EnvElem.unit().scale(D0)
    )
    report.add("aw3-fit:relation2-solved", residual1.is_zero(), residual1)
    report.add("aw3-fit:relation3-solved", residual2.is_zero(), residual2)

    reference = {
        "K2": as_ratfunc(a0) * a1 * Fraction(-1, 4),
        "B": as_ratfunc(-8 * alpha) / (as_ratfunc(a0) * a1),
        "C0": as_ratfunc(-16) / (as_ratfunc(a0) * a0),
        "C1": as_ratfunc(-16) / (as_ratfunc(a1) * a1),
        "D0": as_ratfunc(-(8 * alpha * b0 + 16 * b1)) / (as_ratfunc(a0) * a0 * a1),
        "D1": as_ratfunc(-(8 * alpha * b1 + 16 * b0)) / (as_ratfunc(a1) * a1 * a0),
    }
    fitted_k2 = k2.coeff([("G", 1)])
    report.add_discrepancy(
        "aw3-fit:vs-reference:K2",
        ratfunc_equal(as_ratfunc(fitted_k2), reference["K2"]),
        f"[K0,K1] carries {fitted_k2}*G(1) but the reference displays {reference['K2']}*G(1)",
    )
    for name in ("B", "C0", "C1", "D0", "D1"):
        report.add_discrepancy(
            f"aw3-fit:vs-reference:{name}",
            ratfunc_equal(constants[name], reference[name]),
            f"fitted {name} = {constants[name]} but reference {name} = {reference[name]}",
        )
    return constants, report

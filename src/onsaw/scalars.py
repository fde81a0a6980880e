"""Exact coefficient arithmetic: rationals, sparse Laurent polynomials, rational functions.

Everything here is exact.  The scalars are the rationals: sparse multivariate
Laurent polynomials (integer exponents of either sign) over them, and
fractions of those.  Rational functions are *not* reduced to a canonical form:
equality is decided by cross multiplication, and a cheap normalisation (strip
common monomial content, scale the denominator's leading coefficient to 1)
keeps growth bounded.

Coefficient rule: a stored polynomial coefficient is an ``int`` when it is
integral and a ``fractions.Fraction`` (lowest terms, positive denominator)
otherwise, so integer products and sums never enter ``fractions.py``.  Every
operation here that makes coefficients returns them in that form; ``3 ==
Fraction(3)``, their hashes and their ``str`` agree, so a term map holding an
integral ``Fraction`` (built by hand) still compares and renders the same.
In a mixed product or sum the ``Fraction`` stands on the left: ``int *
Fraction`` would go through ``Fraction.__rmul__`` and its ABC check.  Two
``int``s are never divided (that gives a ``float``); division goes through the
``Fraction`` inverse.  Values that leave the kernel, ``const_value`` and
``evaluate``, are always ``Fraction``.
"""

from fractions import Fraction

_ZERO = Fraction(0)


def _coeff(c):
    """A rational as a stored coefficient: int if integral, else Fraction."""
    if type(c) is int:
        return c
    if type(c) is not Fraction:
        c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


def _integral_to_int(terms: dict) -> dict:
    """Apply the coefficient rule, in place, to a term map the caller owns."""
    for mono, c in terms.items():
        if type(c) is not int and c.denominator == 1:
            terms[mono] = c.numerator
    return terms


def _inverse(c) -> Fraction:
    """1/c as a Fraction, for a nonzero int or Fraction c."""
    return Fraction(c.denominator, c.numerator)


# A monomial is a tuple of (variable name, nonzero exponent) pairs, sorted by
# name.  The empty tuple is the constant monomial.
Mono = tuple


def _mono_mul(a: Mono, b: Mono) -> Mono:
    if not a:
        return b
    if not b:
        return a
    merged = dict(a)
    for name, e in b:
        e2 = merged.get(name, 0) + e
        if e2:
            merged[name] = e2
        else:
            del merged[name]
    return tuple(sorted(merged.items()))


class LaurentPoly:
    """Sparse multivariate Laurent polynomial with rational coefficients.

    Stored as ``terms: dict[Mono, int | Fraction]`` with no zero coefficients,
    integral ones as ``int`` (the module's coefficient rule).  Two polynomials
    are equal iff their term maps are identical.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: dict | None = None):
        self.terms = terms or {}

    # -- constructors -----------------------------------------------------

    @classmethod
    def const(cls, c) -> "LaurentPoly":
        c = _coeff(c)
        return cls({(): c} if c else {})

    @classmethod
    def var(cls, v, exp: int = 1) -> "LaurentPoly":
        if exp == 0:
            return cls.const(1)
        return cls({((str(v), exp),): 1})

    @classmethod
    def monomial(cls, coeff, exps: dict) -> "LaurentPoly":
        coeff = _coeff(coeff)
        if not coeff:
            return cls()
        mono = tuple(sorted((str(v), e) for v, e in exps.items() if e))
        return cls({mono: coeff})

    # -- predicates --------------------------------------------------------

    def __bool__(self):
        return bool(self.terms)

    def is_const(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and () in self.terms)

    def const_value(self) -> Fraction:
        if not self.is_const():
            raise ValueError(f"not a constant polynomial: {self}")
        return Fraction(self.terms.get((), 0))

    def variables(self) -> set:
        names = set()
        for mono in self.terms:
            for name, _ in mono:
                names.add(name)
        return names

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        other = _as_poly_or_none(other)
        if other is None:
            return NotImplemented
        out = dict(self.terms)
        for mono, c in other.terms.items():
            old = out.get(mono)
            if old is None:
                out[mono] = c
                continue
            c2 = c + old if type(old) is int else old + c
            if not c2:
                del out[mono]
            elif type(c2) is int or c2.denominator != 1:
                out[mono] = c2
            else:
                out[mono] = c2.numerator
        return LaurentPoly(out)

    __radd__ = __add__

    def __sub__(self, other):
        other = _as_poly_or_none(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _as_poly_or_none(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __neg__(self):
        return LaurentPoly({m: -c for m, c in self.terms.items()})

    def __mul__(self, other):
        other = _as_poly_or_none(other)
        if other is None:
            return NotImplemented
        if not self.terms or not other.terms:
            return LaurentPoly()
        a, b = self.terms, other.terms
        if len(a) > len(b):
            a, b = b, a
        out: dict = {}
        for m1, c1 in a.items():
            c1_int = type(c1) is int
            for m2, c2 in b.items():
                m = _mono_mul(m1, m2)
                p = c2 * c1 if c1_int else c1 * c2
                old = out.get(m)
                if old is None:
                    out[m] = p
                    continue
                c = p + old if type(old) is int else old + p
                if c:
                    out[m] = c
                else:
                    del out[m]
        return LaurentPoly(_integral_to_int(out))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a polynomial; use RatFunc")
        out = LaurentPoly.const(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base if n > 1 else base
            n >>= 1
        return out

    def __truediv__(self, other):
        if isinstance(other, RatFunc):
            return NotImplemented
        other = as_poly(other)
        mono = other._as_monomial()
        if mono is not None:
            m, c = mono
            inv = tuple((name, -e) for name, e in m)
            inv_c = _inverse(c)
            return LaurentPoly(
                _integral_to_int(
                    {_mono_mul(t, inv): inv_c * tc for t, tc in self.terms.items()}
                )
            )
        return RatFunc(self, other)

    def __rtruediv__(self, other):
        return RatFunc(as_poly(other), self)

    def _as_monomial(self):
        if len(self.terms) == 1:
            return next(iter(self.terms.items()))
        return None

    def __eq__(self, other):
        if isinstance(other, RatFunc):
            return NotImplemented
        other = _as_poly_or_none(other)
        if other is None:
            return NotImplemented
        return self.terms == other.terms

    __hash__ = None

    # -- structural operations ----------------------------------------------

    def evaluate(self, bindings: dict) -> Fraction:
        """Substitute a Fraction for every variable.

        Raises ZeroDivisionError when a variable bound to 0 occurs with a
        negative exponent (a pole), KeyError when a binding is missing.
        """
        named = {str(v): Fraction(c) for v, c in bindings.items()}
        total = _ZERO
        for mono, coeff in self.terms.items():
            value = coeff
            for name, e in mono:
                base = named[name]
                if base == 0 and e < 0:
                    raise ZeroDivisionError(f"pole: {name} = 0 raised to {e}")
                value = base**e * value
            total = total + value
        return total

    def subs(self, v, value) -> "LaurentPoly":
        """Substitute one variable by an exact rational, keeping the others."""
        name = str(v)
        value = Fraction(value)
        out: dict = {}
        for mono, coeff in self.terms.items():
            exps = dict(mono)
            e = exps.pop(name, 0)
            if e:
                if value == 0 and e < 0:
                    raise ZeroDivisionError(f"pole: {name} = 0 raised to {e}")
                coeff = value**e * coeff
            m = tuple(sorted(exps.items()))
            old = out.get(m)
            if old is None:
                out[m] = coeff
                continue
            c2 = coeff + old if type(old) is int else old + coeff
            if c2:
                out[m] = c2
            else:
                del out[m]
        return LaurentPoly(_integral_to_int(out))

    def rename(self, mapping: dict) -> "LaurentPoly":
        """Rename variables; target names must not collide with survivors."""
        named = {str(a): str(b) for a, b in mapping.items()}
        out: dict = {}
        for mono, coeff in self.terms.items():
            m = tuple(sorted((named.get(name, name), e) for name, e in mono))
            if m in out:
                raise ValueError("rename collides with an existing variable")
            out[m] = coeff
        return LaurentPoly(out)

    def invert_var(self, v) -> "LaurentPoly":
        """Substitute v -> 1/v (negate that variable's exponents)."""
        name = str(v)
        out = {}
        for mono, coeff in self.terms.items():
            m = tuple(
                sorted((n, -e) if n == name else (n, e) for n, e in mono)
            )
            out[m] = coeff
        return LaurentPoly(out)

    def degree_in(self, v) -> int | None:
        """Highest exponent of v, or None for the zero polynomial."""
        name = str(v)
        degs = [dict(mono).get(name, 0) for mono in self.terms]
        return max(degs) if degs else None

    def truncate(self, bounds: dict) -> "LaurentPoly":
        """Drop monomials whose exponent of any listed variable exceeds its bound
        (or lies below it, for negative bounds given as (lo, hi) pairs)."""
        named = {}
        for v, b in bounds.items():
            named[str(v)] = b if isinstance(b, tuple) else (None, b)
        out = {}
        for mono, coeff in self.terms.items():
            exps = dict(mono)
            keep = True
            for name, (lo, hi) in named.items():
                e = exps.get(name, 0)
                if hi is not None and e > hi:
                    keep = False
                    break
                if lo is not None and e < lo:
                    keep = False
                    break
            if keep:
                out[mono] = coeff
        return LaurentPoly(out)

    def coefficient_of(self, v, exp: int) -> "LaurentPoly":
        """Polynomial coefficient of v**exp (v removed from the result)."""
        name = str(v)
        out = {}
        for mono, coeff in self.terms.items():
            exps = dict(mono)
            if exps.pop(name, 0) == exp:
                out[tuple(sorted(exps.items()))] = coeff
        return LaurentPoly(out)

    # -- rendering -----------------------------------------------------------

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for mono, coeff in sorted(self.terms.items()):
            factors = []
            if coeff != 1 or not mono:
                factors.append(str(coeff))
            for name, e in mono:
                factors.append(name if e == 1 else f"{name}^{e}")
            parts.append("*".join(factors))
        return " + ".join(parts)

    def __repr__(self):
        return f"LaurentPoly({self})"


def _as_poly_or_none(x):
    if isinstance(x, LaurentPoly):
        return x
    if isinstance(x, (int, Fraction)):
        return LaurentPoly.const(x)
    return None


def as_poly(x) -> LaurentPoly:
    p = _as_poly_or_none(x)
    if p is None:
        raise TypeError(f"cannot interpret {x!r} as a polynomial")
    return p


def lvar(name, exp: int = 1) -> LaurentPoly:
    return LaurentPoly.var(name, exp)


P_ZERO = LaurentPoly()
P_ONE = LaurentPoly.const(1)


def _strip_content(num: LaurentPoly, den: LaurentPoly):
    """Divide num and den by the common monomial content of den and num and
    scale so the denominator's leading coefficient is 1."""
    if not den.terms:
        raise ZeroDivisionError("rational function with zero denominator")
    if not num.terms:
        return P_ZERO, P_ONE
    # The smallest exponent of each variable over all monomials, 0 for a
    # variable that some monomial lacks.
    low: dict = {}
    hits: dict = {}
    for mono in (*num.terms, *den.terms):
        for name, e in mono:
            if name in low:
                hits[name] += 1
                if e < low[name]:
                    low[name] = e
            else:
                low[name] = e
                hits[name] = 1
    count = len(num.terms) + len(den.terms)
    shift = {
        name: e for name, e in low.items() if e < 0 or (e and hits[name] == count)
    }
    if shift:
        inv = tuple(sorted((n, -e) for n, e in shift.items()))
        num = LaurentPoly({_mono_mul(m, inv): c for m, c in num.terms.items()})
        den = LaurentPoly({_mono_mul(m, inv): c for m, c in den.terms.items()})
    lead = den.terms[max(den.terms)]
    if lead != 1:
        inv = _inverse(lead)
        num = LaurentPoly(_integral_to_int({m: inv * c for m, c in num.terms.items()}))
        den = LaurentPoly(_integral_to_int({m: inv * c for m, c in den.terms.items()}))
    return num, den


class RatFunc:
    """Fraction of Laurent polynomials.  No canonical form: equality is by
    cross multiplication (num*den' - num'*den == 0)."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=P_ONE):
        num = as_poly(num)
        den = as_poly(den)
        self.num, self.den = _strip_content(num, den)

    @classmethod
    def const(cls, c) -> "RatFunc":
        return cls(LaurentPoly.const(c))

    def __bool__(self):
        return bool(self.num)

    def is_poly(self) -> bool:
        return self.den == P_ONE

    def __add__(self, other):
        other = _as_ratfunc_or_none(other)
        if other is None:
            return NotImplemented
        if self.den.terms == other.den.terms:
            return RatFunc(self.num + other.num, self.den)
        return RatFunc(
            self.num * other.den + other.num * self.den, self.den * other.den
        )

    __radd__ = __add__

    def __sub__(self, other):
        other = _as_ratfunc_or_none(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _as_ratfunc_or_none(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __neg__(self):
        return RatFunc(-self.num, self.den)

    def __mul__(self, other):
        other = _as_ratfunc_or_none(other)
        if other is None:
            return NotImplemented
        return RatFunc(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _as_ratfunc_or_none(other)
        if other is None:
            return NotImplemented
        if not other.num:
            raise ZeroDivisionError("division by the zero rational function")
        return RatFunc(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        other = _as_ratfunc_or_none(other)
        if other is None:
            return NotImplemented
        return other / self

    def __eq__(self, other):
        other = _as_ratfunc_or_none(other)
        if other is None:
            return NotImplemented
        return ratfunc_equal(self, other)

    __hash__ = None

    def evaluate(self, bindings: dict) -> Fraction:
        den = self.den.evaluate(bindings)
        if den == 0:
            raise ZeroDivisionError("denominator vanishes at evaluation point")
        return self.num.evaluate(bindings) / den

    def rename(self, mapping: dict) -> "RatFunc":
        return RatFunc(self.num.rename(mapping), self.den.rename(mapping))

    def subs(self, v, value) -> "RatFunc":
        return RatFunc(self.num.subs(v, value), self.den.subs(v, value))

    def __str__(self):
        if self.den == P_ONE:
            return str(self.num)
        return f"({self.num})/({self.den})"

    def __repr__(self):
        return f"RatFunc({self})"


def _as_ratfunc_or_none(x):
    if isinstance(x, RatFunc):
        return x
    if isinstance(x, (int, Fraction, LaurentPoly)):
        return RatFunc(as_poly(x))
    return None


def as_ratfunc(x) -> RatFunc:
    r = _as_ratfunc_or_none(x)
    if r is None:
        raise TypeError(f"cannot interpret {x!r} as a rational function")
    return r


def ratfunc_equal(f, g) -> bool:
    """True iff f and g agree as rational functions (cross multiplication)."""
    f = as_ratfunc(f)
    g = as_ratfunc(g)
    return not (f.num * g.den - g.num * f.den)


def coeff_div(x, y):
    """Exact coefficient division, staying polynomial when y is a nonzero rational."""
    if isinstance(y, (int, Fraction)):
        if y == 0:
            raise ZeroDivisionError("division by zero")
        return x * (1 / Fraction(y))
    if isinstance(y, LaurentPoly) and y.is_const():
        return coeff_div(x, y.const_value())
    return as_ratfunc(x) / as_ratfunc(y)

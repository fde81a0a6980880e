"""Exact coefficient arithmetic: rationals, sparse Laurent polynomials, rational functions.

Everything here is exact.  The scalars are the rationals: sparse multivariate
Laurent polynomials (integer exponents of either sign) over them, and
fractions of those.  Rational functions are *not* reduced to a canonical form:
equality is decided by cross multiplication, and a cheap normalisation (strip
common monomial content, scale the denominator's leading coefficient to 1)
keeps growth bounded.

Division stays in the Laurent ring where it can: ``unit_inverse`` inverts its
units, the nonzero rationals and one-term polynomials, and ``coeff_div``
divides by them only.  ``RatFunc`` is kept for real quotients: the r-matrix,
operator-matrix entries and the fitted three-generator constants.

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

Monomial encoding: a term-map key is one ``int``, ``sum(e_i << (64 * i))``,
where ``e_i`` is the exponent of the variable with index ``i`` in an
append-only registry of names (a name gets the next index the first time it
is seen) and each exponent sits in a signed 64-bit field.  The constant
monomial is ``0``, multiplying two monomials is one integer addition and
dividing by one is a subtraction (Monagan & Pearce, "Polynomial division
using dynamic arrays, heaps, and packed exponent vectors", 2007).  Every
entry point that makes exponents (``var``, ``monomial``,
``encode_monomial``, ``**`` and the re-encoding in ``subs``, ``rename``,
``invert_var`` and ``coefficients_in``) raises ``ValueError`` for an
exponent with ``|e| >= 2**31``, so a field can overflow only after more
than ``2**32`` successive products.  Code that needs names or their order
decodes a key to the sorted ``(name, exp)`` tuple first (memoised), so
rendering and the choice of a leading term do not depend on the order in
which names were registered.  Only this module builds or reads keys; the
public pair ``encode_monomial``/``decode_monomial`` converts them to and
from exponent dicts.
"""

import threading
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


# Packed monomials (see the module docstring): the field width, the exponent
# bound, the name registry and the memo of decoded keys.
_FIELD = 64
_MASK = (1 << _FIELD) - 1
_SIGN = 1 << (_FIELD - 1)
_EXP_BOUND = 1 << 31
_shift_of: dict = {}  # name -> bit offset of its field
_names: list = []  # field index -> name
_decoded: dict = {0: ()}  # key -> sorted (name, exp) tuple
_registry_lock = threading.Lock()


def _encode(pairs) -> int:
    """The key of (name, exp) pairs, registering new names; ValueError for
    |exp| >= 2**31."""
    key = 0
    for name, e in pairs:
        if not -_EXP_BOUND < e < _EXP_BOUND:
            raise ValueError(f"exponent {e} of {name} is out of range (|e| < 2**31)")
        if e:
            shift = _shift_of.get(name)
            if shift is None:
                shift = _register(name)
            key += e << shift
    return key


def _register(name: str) -> int:
    # Two threads registering one name must not give it two fields, or equal
    # monomials would get unequal keys.
    with _registry_lock:
        shift = _shift_of.get(name)
        if shift is None:
            _names.append(name)
            shift = _shift_of[name] = _FIELD * (len(_names) - 1)
        return shift


def _decode(key: int) -> tuple:
    """The sorted (name, exp) tuple of a key (memoised)."""
    pairs = _decoded.get(key)
    if pairs is None:
        found = []
        m, i = key, 0
        while m:
            e = m & _MASK
            if e & _SIGN:
                e -= 1 << _FIELD
            if e:
                found.append((_names[i], e))
            m = (m - e) >> _FIELD
            i += 1
        pairs = _decoded[key] = tuple(sorted(found))
    return pairs


def encode_monomial(exps: dict) -> int:
    """The term-map key of the monomial with exponents {variable: exp}.

    Raises ValueError for an exponent with |exp| >= 2**31."""
    return _encode((str(v), e) for v, e in exps.items())


def decode_monomial(key: int) -> dict:
    """The exponents {name: exp} of a term-map key (zero exponents omitted)."""
    return dict(_decode(key))


class LaurentPoly:
    """Sparse multivariate Laurent polynomial with rational coefficients.

    Stored as ``terms: dict[int, int | Fraction]``, packed monomial keys (see
    ``encode_monomial``) to coefficients, with no zero coefficients and
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
        return cls({0: c} if c else {})

    @classmethod
    def var(cls, v, exp: int = 1) -> "LaurentPoly":
        """v**exp; raises ValueError for |exp| >= 2**31."""
        return cls({_encode(((str(v), exp),)): 1})

    @classmethod
    def monomial(cls, coeff, exps: dict) -> "LaurentPoly":
        """coeff times prod v**e over exps; raises ValueError for |e| >= 2**31."""
        coeff = _coeff(coeff)
        key = encode_monomial(exps)
        return cls({key: coeff} if coeff else {})

    # -- predicates --------------------------------------------------------

    def __bool__(self):
        return bool(self.terms)

    def is_const(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and 0 in self.terms)

    def const_value(self) -> Fraction:
        if not self.is_const():
            raise ValueError(f"not a constant polynomial: {self}")
        return Fraction(self.terms.get(0, 0))

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
                m = m1 + m2
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
        """self**n for n >= 0; raises ValueError when n times the largest
        |exponent| reaches 2**31."""
        if n < 0:
            raise ValueError("negative power of a polynomial; use RatFunc")
        top = max((abs(e) for m in self.terms for _, e in _decode(m)), default=0)
        if n * top >= _EXP_BOUND:
            raise ValueError(f"power {n} takes an exponent out of range (|e| < 2**31)")
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
        inv = unit_inverse(other)
        return RatFunc(self, other) if inv is None else self * inv

    def __rtruediv__(self, other):
        return RatFunc(as_poly(other), self)

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
            for name, e in _decode(mono):
                base = named[name]
                if base == 0 and e < 0:
                    raise ZeroDivisionError(f"pole: {name} = 0 raised to {e}")
                value = base**e * value
            total = total + value
        return total

    def subs(self, v, value) -> "LaurentPoly":
        """Substitute one variable by an exact rational, keeping the others.

        Raises ValueError when a re-encoded exponent has |e| >= 2**31."""
        name = str(v)
        value = Fraction(value)
        out: dict = {}
        for mono, coeff in self.terms.items():
            exps = dict(_decode(mono))
            e = exps.pop(name, 0)
            if e:
                if value == 0 and e < 0:
                    raise ZeroDivisionError(f"pole: {name} = 0 raised to {e}")
                coeff = value**e * coeff
                mono = _encode(exps.items())
            old = out.get(mono)
            if old is None:
                out[mono] = coeff
                continue
            c2 = coeff + old if type(old) is int else old + coeff
            if c2:
                out[mono] = c2
            else:
                del out[mono]
        return LaurentPoly(_integral_to_int(out))

    def rename(self, mapping: dict) -> "LaurentPoly":
        """Rename variables; target names must not collide with survivors.

        Raises ValueError on a collision, or when a re-encoded exponent has
        |e| >= 2**31."""
        named = {str(a): str(b) for a, b in mapping.items()}
        out: dict = {}
        for mono, coeff in self.terms.items():
            pairs = [(named.get(name, name), e) for name, e in _decode(mono)]
            m = _encode(pairs)
            if m in out or len({name for name, _ in pairs}) < len(pairs):
                raise ValueError("rename collides with an existing variable")
            out[m] = coeff
        return LaurentPoly(out)

    def invert_var(self, v) -> "LaurentPoly":
        """Substitute v -> 1/v (negate that variable's exponents).

        Raises ValueError when a re-encoded exponent has |e| >= 2**31."""
        name = str(v)
        out = {}
        for mono, coeff in self.terms.items():
            m = _encode((n, -e) if n == name else (n, e) for n, e in _decode(mono))
            out[m] = coeff
        return LaurentPoly(out)

    def truncate(self, bounds: dict) -> "LaurentPoly":
        """Drop monomials whose exponent of any listed variable exceeds its bound
        (or lies below it, for negative bounds given as (lo, hi) pairs)."""
        named = {}
        for v, b in bounds.items():
            named[str(v)] = b if isinstance(b, tuple) else (None, b)
        out = {}
        for mono, coeff in self.terms.items():
            exps = dict(_decode(mono))
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

    def coefficients_in(self, v) -> dict:
        """Split by powers of v: {exp: polynomial coefficient of v**exp}, with
        v removed from the coefficients.

        Raises ValueError when a re-encoded exponent has |e| >= 2**31."""
        name = str(v)
        out: dict = {}
        for mono, coeff in self.terms.items():
            exps = dict(_decode(mono))
            e = exps.pop(name, 0)
            out.setdefault(e, {})[_encode(exps.items()) if e else mono] = coeff
        return {e: LaurentPoly(terms) for e, terms in out.items()}

    def coefficient_of(self, v, exp: int) -> "LaurentPoly":
        """Polynomial coefficient of v**exp (v removed from the result)."""
        return self.coefficients_in(v).get(exp, LaurentPoly())

    # -- rendering -----------------------------------------------------------

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for mono, coeff in sorted(self.terms.items(), key=lambda t: _decode(t[0])):
            factors = []
            if coeff != 1 or not mono:
                factors.append(str(coeff))
            for name, e in _decode(mono):
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
        for name, e in _decode(mono):
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
        low_key = _encode(shift.items())
        num = LaurentPoly({m - low_key: c for m, c in num.terms.items()})
        den = LaurentPoly({m - low_key: c for m, c in den.terms.items()})
    lead = den.terms[max(den.terms, key=_decode)]
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


def unit_inverse(c):
    """1/c for a unit c of the Laurent ring, a nonzero rational or a one-term
    LaurentPoly (then 1/c is one too); None for anything else."""
    if isinstance(c, LaurentPoly):
        if len(c.terms) != 1:
            return None
        ((m, k),) = c.terms.items()
        return LaurentPoly({-m: _coeff(_inverse(k))})
    if isinstance(c, (int, Fraction)) and c:
        return _coeff(_inverse(c))
    return None


def coeff_div(x, y):
    """x / y for a unit y of the Laurent ring (see unit_inverse), else ValueError."""
    inv = unit_inverse(y)
    if inv is None:
        raise ValueError(f"cannot divide by {y}: not a nonzero rational or a monomial")
    return x * inv

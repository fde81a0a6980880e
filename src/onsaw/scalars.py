"""Exact coefficient arithmetic: rationals, sparse Laurent polynomials, rational functions.

Everything here is exact.  The scalars are the rationals and sparse
multivariate Laurent polynomials (integer exponents of either sign) over
them; every value a check computes is one of these.

Division stays in the Laurent ring: ``unit_inverse`` inverts its units, the
nonzero rationals and one-term polynomials, and ``coeff_div``, the one
division path, divides by them only; a ``LaurentPoly`` has no ``/``.
``RatFunc`` is a numerator/denominator pair with no normal form, equal by
cross multiplication; it is built only for the reference constants of
``aw3_fit`` as the paper prints them.

Coefficient rule: an integral coefficient is an ``int``; any other is a
``fractions.Fraction`` (lowest terms, positive denominator); ``as_coeff``
puts a rational from outside in that form.  Every operation here that makes
coefficients returns them in that form; ``3 == Fraction(3)``, their hashes
and their ``str`` agree, so a term map holding an integral ``Fraction``
(built by hand) still compares and renders the same.  Every sparse sum and
every scaling, of polynomial terms and of algebra-element coefficients
alike, goes through ``accumulate``, which keeps the rule; every product of
two polynomials, in ``LaurentPoly.__mul__``, inside ``accumulate`` and in
``accumulate_product`` (a term map scaled by a product of two coefficients,
the bracket's sum), goes through one multiply-add loop, ``_add_product``
(``out += k*a*b`` in place for a rational ``k``), so no product is built
only to be added.  ``accumulate`` changes in place only a polynomial that it
(or ``accumulate_product``) built itself, and any other polynomial is copied
on its first update, so shared polynomials never change; ``frozen`` ends the
in-place sums of a finished term map (an element constructor and
``reps.rep_apply`` call it).  Two ``int``s are
never divided (that gives a ``float``); division goes through the
``Fraction`` inverse.  Values that leave the kernel, ``const_value`` and
``evaluate``, are always ``Fraction``.

Monomial encoding: a term-map key is one ``int``, ``sum(e_i << (64 * i))``,
where ``e_i`` is the exponent of the variable with index ``i`` in an
append-only registry of names (a name gets the next index the first time it
is seen) and each exponent sits in a signed 64-bit field.  The constant
monomial is ``0``, multiplying two monomials is one integer addition and
dividing by one is a subtraction (Monagan & Pearce, "Polynomial division
using dynamic arrays, heaps, and packed exponent vectors", 2007).  Every
entry point that makes exponents (``lvar``, ``monomial``,
``encode_monomial``, ``**`` and the re-encodings in ``rename``,
``inverted`` and ``coefficients_in``) raises ``ValueError`` for an
exponent with ``|e| >= 2**31``, so a field can overflow only after more
than ``2**32`` successive products; ``inverted`` negates exponents, and
``|-e| = |e|``, so it never raises.  Code that needs names or their order
decodes a key to the sorted ``(name, exp)`` tuple first (memoised), so
rendering does not depend on the order in which names were registered.
Only this module builds or reads keys; the public pair
``encode_monomial``/``decode_monomial`` converts them to and from exponent
dicts.
"""

import threading
from fractions import Fraction

_ZERO = Fraction(0)


def as_coeff(c):
    """A rational as a stored coefficient: int if integral, else Fraction."""
    if type(c) is int:
        return c
    if type(c) is not Fraction:
        c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


def _inverse(c) -> Fraction:
    """1/c as a Fraction, for a nonzero int or Fraction c."""
    return Fraction(c.denominator, c.numerator)


def _add_product(out: dict, a: dict, b: dict, k=1) -> None:
    """out += k*a*b, in place, for polynomial term maps a and b and a nonzero
    rational k.

    The one multiply-add loop: `k` scales each term of the shorter factor
    once, before its inner loop.  Each coefficient it stores follows the rule
    (an integral Fraction becomes an int) and a key whose sum cancels is
    removed, so `out` never holds a zero.  `a` or `b` may be `out` itself;
    it is read from a copy then."""
    if a is out:
        a = dict(a)
    if b is out:
        b = dict(b)
    if len(a) > len(b):
        a, b = b, a
    get = out.get
    for m1, c1 in a.items():
        if k != 1:
            c1 = c1 * k
            if type(c1) is Fraction and c1.denominator == 1:
                c1 = c1.numerator
        for m2, c2 in b.items():
            m = m1 + m2
            old = get(m)
            c = c1 * c2 if old is None else old + c1 * c2
            if type(c) is Fraction and c.denominator == 1:
                c = c.numerator
            if c:
                out[m] = c
            elif old is not None:
                del out[m]


def _add_at(acc: dict, key, a: dict, b: dict, k=1) -> None:
    """acc[key] += k*a*b through `_add_product`, for term maps a and b and a
    nonzero rational k: the value at `key` becomes a `_Sum` that is updated in
    place (see `accumulate`), and the key goes when the sum cancels."""
    old = acc.get(key)
    if type(old) is not _Sum:
        old = acc[key] = _Sum(None if old is None else dict(_terms_of(old)))
    _add_product(old.terms, a, b, k)
    if not old.terms:
        del acc[key]


def accumulate(acc: dict, terms: dict, k=None) -> dict:
    """Add the term map `terms`, scaled by `k` (unscaled when `k` is None),
    into the term map `acc` in place, and return `acc`.

    This is the one sparse-sum loop: `LaurentPoly` sums, differences and
    products with a rational, and every sum of algebra elements, go through
    it.  Each value it computes follows the coefficient rule: an integral
    Fraction is stored as an int, a zero product is skipped and a key whose
    sum cancels is removed, so `acc` never holds a zero.  A key that `acc`
    lacks takes its value from `terms` as it is when `k` is None (a plain
    store).

    Values may be rationals or (for algebra elements) LaurentPolys; a
    `LaurentPoly` term map takes only a rational `k`.  Where a value or `k`
    is a LaurentPoly, `_add_product` adds c*k to the key's polynomial without
    building the product (`accumulate_product` adds c*x*y the same way): in
    place when accumulate built that polynomial in `acc`, else into a copy,
    so a value of `terms`, `k`, or a shared polynomial that `dict(x.terms)`
    put in `acc` never changes.  Such a sum reads and prints as a polynomial
    until `frozen` ends it; before that, `acc` must not be copied into a
    second map that is summed into too.  `k`, and a
    value at its own key, may be one of those sums: they are read as they
    were before the call.

    `acc` must be a dict the caller owns, never the `terms` of a polynomial
    or an element: those are shared (elements, memoised images, `ZERO`,
    `P_ONE`).
    """
    by_poly = False
    if k is None:
        kt = _ONE
    elif not k:
        return acc  # every product is zero (embed_leg's typed 0, a 0 r-matrix entry)
    elif type(k) in _POLY:
        if type(k) is _Sum:  # it may be acc's own and change below
            k = LaurentPoly(dict(k.terms))
        kt, by_poly = k.terms, True
    else:
        kt = {0: k}
    for key, c in terms.items():
        old = acc.get(key)
        if by_poly or type(c) in _POLY:
            if old is None and k is None and type(c) is LaurentPoly:
                acc[key] = c  # a plain store; copied on its first update
            else:
                _add_at(acc, key, _terms_of(c), kt)
            continue
        if k is not None:
            c = c * k
            if type(c) is Fraction and c.denominator == 1:
                c = c.numerator
            if not c:
                continue
        if old is None:
            acc[key] = c
            continue
        c = old + c
        if type(c) is Fraction and c.denominator == 1:
            c = c.numerator
        if c:
            acc[key] = c
        else:
            del acc[key]
    return acc


def accumulate_product(acc: dict, terms: dict, x, y) -> dict:
    """Add the term map `terms`, with rational values, scaled by x*y into the
    term map `acc` in place, and return `acc`.

    When x or y is a LaurentPoly, `_add_product` adds c*x*y at each key of
    `terms` with value c, in the way `accumulate` adds a polynomial product,
    and x*y is never built; when both are rationals this is
    `accumulate(acc, terms, x * y)`.  x and y are read as they were before
    the call, even when one is a sum that `accumulate` is building in `acc`;
    the rest of `accumulate`'s contract holds here too."""
    if type(x) not in _POLY and type(y) not in _POLY:
        return accumulate(acc, terms, x * y)
    if type(x) is _Sum:  # it may be acc's own and change below
        x = LaurentPoly(dict(x.terms))
    if type(y) is _Sum:
        y = LaurentPoly(dict(y.terms))
    xt, yt = _terms_of(x), _terms_of(y)
    for key, c in terms.items():
        _add_at(acc, key, xt, yt, c)
    return acc


def frozen(terms: dict) -> dict:
    """A copy of the term map `terms` without its zero values, in which each
    sum that `accumulate` built in place is a plain LaurentPoly: no later
    `accumulate` changes it."""
    out = {}
    for key, c in terms.items():
        if c:
            if type(c) is _Sum:
                c.__class__ = LaurentPoly
            out[key] = c
    return out


def sum_terms(parts) -> dict:
    """The term map of the sum of `parts`, polynomials or elements alike."""
    out: dict = {}
    for part in parts:
        accumulate(out, part.terms)
    return out


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
        c = as_coeff(c)
        return cls({0: c} if c else {})

    @classmethod
    def monomial(cls, coeff, exps: dict) -> "LaurentPoly":
        """coeff times prod v**e over exps; raises ValueError for |e| >= 2**31."""
        coeff = as_coeff(coeff)
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
        return LaurentPoly(accumulate(dict(self.terms), other.terms))

    __radd__ = __add__

    def __sub__(self, other):
        other = _as_poly_or_none(other)
        if other is None:
            return NotImplemented
        return LaurentPoly(accumulate(dict(self.terms), other.terms, -1))

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __neg__(self):
        return LaurentPoly({m: -c for m, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return LaurentPoly(accumulate({}, self.terms, other))
        other = _as_poly_or_none(other)
        if other is None:
            return NotImplemented
        out: dict = {}
        _add_product(out, self.terms, other.terms)
        return LaurentPoly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        """self**n for n >= 0; raises ValueError when n times the largest
        |exponent| reaches 2**31."""
        if n < 0:
            raise ValueError(
                "negative power of a polynomial; use lvar(name, -k) for a"
                " variable or unit_inverse for a monomial"
            )
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

    def __eq__(self, other):
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

    def rename(self, mapping: dict) -> "LaurentPoly":
        """Rename variables; target names must not collide with survivors.

        Raises ValueError on a collision, or when a re-encoded exponent has
        |e| >= 2**31."""
        return self._recoded({str(a): (str(b), 1) for a, b in mapping.items()})

    def inverted(self, names) -> "LaurentPoly":
        """Substitute 1/v for each variable v of `names` (negate its exponents)."""
        return self._recoded({str(v): (str(v), -1) for v in names})

    def _recoded(self, to: dict) -> "LaurentPoly":
        """Each variable `name` of `to`, with to[name] = (new name, sign),
        renamed and its exponent multiplied by the sign."""
        out: dict = {}
        for mono, coeff in self.terms.items():
            pairs = [
                (name, e) if (t := to.get(name)) is None else (t[0], t[1] * e)
                for name, e in _decode(mono)
            ]
            m = _encode(pairs)
            if m in out or len({name for name, _ in pairs}) < len(pairs):
                raise ValueError("rename collides with an existing variable")
            out[m] = coeff
        return LaurentPoly(out)

    def truncate(self, names, degree: int) -> "LaurentPoly":
        """The monomials whose exponent of each variable in `names` has
        absolute value at most `degree`."""
        named = {str(v) for v in names}
        out = {}
        for mono, coeff in self.terms.items():
            if all(abs(e) <= degree for name, e in _decode(mono) if name in named):
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
    """name**exp; raises ValueError for |exp| >= 2**31."""
    return LaurentPoly({_encode(((str(name), exp),)): 1})


P_ONE = LaurentPoly.const(1)


class _Sum(LaurentPoly):
    """A polynomial that `accumulate` built and is still summing in place;
    `frozen` turns it into a plain LaurentPoly."""

    __slots__ = ()


_POLY = frozenset((LaurentPoly, _Sum))
_ONE = {0: 1}


def _terms_of(c) -> dict:
    """The term map of a polynomial or of a nonzero rational."""
    return c.terms if type(c) in _POLY else {0: c}


class RatFunc:
    """A numerator/denominator pair of Laurent polynomials, stored as given
    with no normal form; equality is by cross multiplication
    (num*den' - num'*den == 0).  Only the printed `aw3_fit` reference
    constants are built as one."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=P_ONE):
        self.num, self.den = as_poly(num), as_poly(den)
        if not self.den:
            raise ZeroDivisionError("rational function with zero denominator")

    def __bool__(self):
        return bool(self.num)

    def __add__(self, other):
        other = _as_ratfunc_or_none(other)
        if other is None:
            return NotImplemented
        # With no normal form, this shortcut keeps repeated sums from growing.
        if self.den.terms == other.den.terms:
            return RatFunc(self.num + other.num, self.den)
        return RatFunc(
            self.num * other.den + other.num * self.den, self.den * other.den
        )

    __radd__ = __add__

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

    def __eq__(self, other):
        other = _as_ratfunc_or_none(other)
        if other is None:
            return NotImplemented
        return ratfunc_equal(self, other)

    __hash__ = None

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
        return LaurentPoly({-m: as_coeff(_inverse(k))})
    if isinstance(c, (int, Fraction)) and c:
        return as_coeff(_inverse(c))
    return None


def coeff_div(x, y):
    """x / y for a unit y of the Laurent ring (see unit_inverse), else ValueError."""
    inv = unit_inverse(y)
    if inv is None:
        raise ValueError(f"cannot divide by {y}: not a nonzero rational or a monomial")
    return x * inv
